// Package fifo provides the simulator's one first-in, first-out queue type.
// Link credit queues, DLL replay buffers, the DMAC write-issue and read
// queues, the driver chain queue and the tcad admission lanes all use it.
package fifo

import "fmt"

// minCap is the capacity of a queue's first backing array. Capacities stay
// powers of two so that wrapping an index is a mask, not a division.
const minCap = 8

// Queue is a growable ring buffer. The zero value is an empty queue ready
// to use. Pop zeroes the slot it vacates, so the queue never keeps a popped
// pointer alive. A Queue is not safe for concurrent use.
type Queue[T any] struct {
	buf  []T // len(buf) is 0 or a power of two; slots outside the queue are zero
	head int // index in buf of the oldest element
	n    int // number of queued elements
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifo: Pop on empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns a pointer to the i-th oldest element; At(0) is the head. The
// pointer is valid until the next Push, Pop or Clear. It panics unless
// 0 <= i < Len().
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("fifo: index %d out of range [0, %d)", i, q.n))
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Clear empties the queue, zeroing every slot it held and keeping the
// backing array for reuse.
func (q *Queue[T]) Clear() {
	for q.n > 0 {
		q.Pop()
	}
}

// grow doubles the backing array, unwrapping the queue to start at index 0.
func (q *Queue[T]) grow() {
	buf := make([]T, max(minCap, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
