package tcad

import (
	"sync"

	"tca/internal/fifo"
)

// queue is the bounded two-lane admission queue. Interactive jobs always
// dispatch before sweep jobs; within a lane, FIFO. push sheds when the
// lane is at capacity; pushUnbounded bypasses the cap for retries and
// checkpoint restores (those jobs were already admitted once — shedding
// them would lose accepted work).
//
// Lock order: Server.mu may be held while taking q.mu (admission pushes
// under Server.mu); the reverse never happens — pop releases q.mu before
// the worker touches the job table.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  [laneCount]fifo.Queue[*Job]
	cap    int
	closed bool
	met    *metrics
}

func newQueue(capacity int, met *metrics) *queue {
	q := &queue{cap: capacity, met: met}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits a job to its lane, or returns ErrQueueFull / ErrDraining.
func (q *queue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if q.lanes[j.Priority].Len() >= q.cap {
		return ErrQueueFull
	}
	q.enqueueLocked(j)
	return nil
}

// pushUnbounded enqueues past the cap (retries, checkpoint restore).
// After close it silently drops: the drain checkpoint picks the job up
// from its table state instead.
func (q *queue) pushUnbounded(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.enqueueLocked(j)
}

func (q *queue) enqueueLocked(j *Job) {
	q.lanes[j.Priority].Push(j)
	q.met.queueDepth[j.Priority].Add(1)
	q.cond.Signal()
}

// pop blocks for the next job, interactive lane first. ok is false once
// the queue is closed and empty — the worker's exit signal. A closed
// queue still drains whatever it holds, so close + pop loops finish
// admitted work.
func (q *queue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for pri := Priority(0); pri < laneCount; pri++ {
			if q.lanes[pri].Len() > 0 {
				q.met.queueDepth[pri].Add(-1)
				return q.lanes[pri].Pop(), true
			}
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// close stops admission and wakes every blocked pop. Queued jobs drop:
// callers that need them (drain) read the job table, not the queue.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for pri := range q.lanes {
		q.met.queueDepth[pri].Add(-int64(q.lanes[pri].Len()))
		q.lanes[pri].Clear()
	}
	q.cond.Broadcast()
}
