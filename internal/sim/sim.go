// Package sim provides the deterministic discrete-event engine that drives
// the whole TCA/PEACH2 simulation.
//
// Time is measured in integer picoseconds. All hardware models (PCIe links,
// the PEACH2 router and DMA controller, GPUs, host memory, the InfiniBand
// baseline) schedule callbacks on a single Engine; the engine executes them
// in strict timestamp order, breaking ties by scheduling order, so every run
// is reproducible bit-for-bit.
package sim

import (
	"errors"
	"fmt"
	"time"

	"tca/internal/units"
)

// Time is an absolute simulated timestamp in picoseconds since the start of
// the simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d units.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) units.Duration { return units.Duration(t - earlier) }

// Elapsed returns the time as a duration since simulation start (time
// zero) — the blessed conversion from an absolute timestamp to a span,
// enforced by the unittypes analyzer in place of raw casts.
func (t Time) Elapsed() units.Duration { return units.Duration(t) }

// String formats the timestamp like a duration since time zero.
func (t Time) String() string { return units.Duration(t).String() }

// CompID identifies a simulated component for host-time attribution. IDs
// are allocated by a profiler (internal/prof); 0 is the untagged/engine
// component. Tags are inert metadata: they never influence event ordering,
// so tagged and untagged runs produce bit-identical simulation results.
type CompID uint32

// Executor intercepts event execution when a profiler is attached via
// SetExecutor. ExecEvent must call fn exactly once, synchronously; comp is
// the component the event was scheduled under (0 = untagged). The engine's
// clock already shows the event's timestamp when ExecEvent runs.
type Executor interface {
	ExecEvent(comp CompID, fn func())
}

// Action is the allocation-free alternative to a func() callback: a
// component implements RunAction on a reusable struct (typically drawn from
// a per-component free list) and schedules it with AtAction/AfterAction.
// Scheduling an Action costs zero heap allocations on the bare engine,
// which is what keeps the TLP hot path under the allocs/event gate; a
// func() closure, by contrast, allocates its capture environment on every
// schedule. RunAction receives the engine clock at dispatch time.
type Action interface {
	RunAction(now Time)
}

// StopReason reports why a Run returned: the queue drained or a run
// budget (event count or host wall-clock) was exhausted. Budget stops
// leave the pending queue intact, so a supervisor can inspect the stuck
// simulation or hand the engine back for a resumed run.
type StopReason uint8

const (
	// StopDrained: the event queue is empty — the normal end of a run.
	StopDrained StopReason = iota
	// StopMaxEvents: the SetBudget event allowance was exhausted.
	StopMaxEvents
	// StopMaxHost: the SetBudget host wall-clock allowance was exhausted.
	StopMaxHost
)

// String names the reason for logs and error messages.
func (r StopReason) String() string {
	switch r {
	case StopDrained:
		return "drained"
	case StopMaxEvents:
		return "max-events"
	case StopMaxHost:
		return "max-host-time"
	}
	return fmt.Sprintf("StopReason(%d)", uint8(r))
}

// BudgetExceeded reports whether the reason is one of the two budget stops.
func (r StopReason) BudgetExceeded() bool { return r == StopMaxEvents || r == StopMaxHost }

// ErrBudgetExceeded is the sentinel all budget failures unwrap to, so
// callers can errors.Is a run-too-long condition without matching on the
// specific budget dimension.
var ErrBudgetExceeded = errors.New("sim: run budget exceeded")

// BudgetError is the typed failure a supervisor surfaces when an engine
// run was cut off by its budget. It satisfies errors.Is(err,
// ErrBudgetExceeded).
type BudgetError struct {
	// Reason is StopMaxEvents or StopMaxHost.
	Reason StopReason
	// Events is how many events ran under the budget before the stop.
	Events uint64
	// Host is the host wall-clock time the budgeted run consumed (zero
	// when no host budget was armed).
	Host time.Duration
}

func (e *BudgetError) Error() string {
	if e.Reason == StopMaxHost {
		return fmt.Sprintf("sim: run budget exceeded: host clock (%v elapsed, %d events)", e.Host, e.Events)
	}
	return fmt.Sprintf("sim: run budget exceeded: event count (%d events)", e.Events)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) true.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// hostBudgetCheckInterval is how many events run between host-clock reads
// when a host budget is armed. Reading the clock is ~20 ns; amortizing it
// over 1024 events keeps the budgeted hot path within the events/sec gate
// while still bounding overshoot to a few microseconds of simulation work.
const hostBudgetCheckInterval = 1024

// event is one heap key: the (at, seq) total order plus the slab slot that
// holds the event's callback. seq breaks timestamp ties so that events
// scheduled earlier run earlier — the property that makes runs
// deterministic. The key holds no pointers, so sifting it through the heap
// costs no GC write barriers.
type event struct {
	at   Time
	seq  uint64
	slot uint32
}

// before reports whether a runs before b in the (at, seq) order that
// defines the simulation.
func (a event) before(b event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// callback is a pending event's payload, parked in the engine's slab while
// its key is on the heap. Exactly one of fn and act is set on a live
// entry; a free entry links to the next free one through next.
type callback struct {
	comp CompID
	next uint32 // 1 + index of the next free entry; 0 ends the free list
	fn   func()
	act  Action
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use at time zero.
//
// The pending queue is a hand-rolled binary min-heap of 24-byte event keys
// rather than container/heap: the stdlib interface boxes every pushed
// element into an `any`, costing one allocation per scheduled event, and
// the queue is the hottest structure in the simulator. Callbacks live in a
// slab with a free list, so a sift moves only the pointer-free keys. Pop
// order is fully determined by the (at, seq) total order, so the heap's
// internal layout can never affect simulation results.
//
// A component whose events form a stream with strictly increasing (at, seq)
// keys — a DMA engine's issue slots, a link direction's arrivals — keeps
// only the stream's next event on the heap: it takes the stream's seqs up
// front with ReserveSeqs and re-arms one action per event with
// AtActionSeq, so the heap stays O(components) deep while the event order
// stays exactly what scheduling every event eagerly would have given.
type Engine struct {
	now   Time
	seq   uint64
	queue []event
	slab  []callback
	// freeSlot is 1 + the index of the first free slab entry (0: none).
	freeSlot uint32
	executed uint64
	// hiWater is the queue-depth high-water mark since the last
	// ResetQueueHighWater — a capacity-planning signal for the profiler.
	hiWater   int
	inHandler bool
	// curComp is the component tag of the event currently executing;
	// events scheduled from inside a handler with plain At/After inherit
	// it, so explicitly tagging a component's entry points attributes its
	// whole causal chain. 0 (untagged) outside handlers.
	curComp CompID
	// exec, when non-nil, wraps every event execution (profiling). The
	// disabled path costs one nil check per event and zero allocations.
	exec Executor

	// Run budget (SetBudget). budgetEvents/budgetHost of zero mean
	// unlimited; budgetStart anchors the event allowance at the executed
	// count when the budget was armed. The host clock is injected
	// (SetHostClock) because this package must never read the wall clock
	// itself — callers pass prof.HostNanos, the blessed accessor.
	budgetEvents uint64
	budgetHost   int64 // host nanoseconds
	budgetStart  uint64
	hostClock    func() int64
	hostStart    int64
	hostArmed    bool
}

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have run so far; useful for run statistics
// and for detecting runaway models in tests.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// QueueHighWater reports the deepest the pending queue has been since the
// engine was created or the mark was last reset.
func (e *Engine) QueueHighWater() int { return e.hiWater }

// ResetQueueHighWater clears the high-water mark down to the current depth,
// so a profiler can attribute the mark to one measured phase.
func (e *Engine) ResetQueueHighWater() { e.hiWater = len(e.queue) }

// SetExecutor attaches (or, with nil, detaches) an event-execution wrapper.
// Attaching a profiler changes host-side behavior only: the event order the
// wrapper observes is exactly the order the bare engine would execute.
func (e *Engine) SetExecutor(x Executor) { e.exec = x }

// At schedules fn to run at absolute time t, attributed to the component of
// the currently executing event (untagged at the top level). Scheduling in
// the past is a model bug, so it panics rather than silently reordering
// causality.
func (e *Engine) At(t Time, fn func()) { e.schedule(e.curComp, t, fn) }

// CurrentComp reports the component tag of the running event (0 outside
// handlers): the tag At and After give the events they schedule. A
// component without its own tag passes it to AtAction to attribute a
// pooled action the way At would attribute a closure.
func (e *Engine) CurrentComp() CompID { return e.curComp }

// AtComp is At with an explicit component attribution tag — the call
// components use at their entry points so downstream events inherit it.
func (e *Engine) AtComp(comp CompID, t Time, fn func()) { e.schedule(comp, t, fn) }

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d units.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.schedule(e.curComp, e.now.Add(d), fn)
}

// AfterComp is After with an explicit component attribution tag.
func (e *Engine) AfterComp(comp CompID, d units.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.schedule(comp, e.now.Add(d), fn)
}

// AtAction schedules a to run at absolute time t under component comp. It is
// the zero-allocation counterpart of AtComp: the Action value is stored in
// the event queue directly, so a pooled action struct round-trips through
// the engine without touching the heap.
func (e *Engine) AtAction(comp CompID, t Time, a Action) { e.scheduleAction(comp, t, a) }

// AfterAction schedules a to run d after the current time under component
// comp — the zero-allocation counterpart of AfterComp. Negative d panics.
func (e *Engine) AfterAction(comp CompID, d units.Duration, a Action) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.scheduleAction(comp, e.now.Add(d), a)
}

// ReserveSeqs takes n consecutive tie-break seqs without scheduling
// anything and returns the first. An event later scheduled under one of
// them with AtActionSeq sorts exactly where it would have if it had been
// scheduled now: before every same-timestamp event scheduled after this
// call. n must be positive.
func (e *Engine) ReserveSeqs(n int) uint64 {
	if n <= 0 {
		panic(fmt.Sprintf("sim: ReserveSeqs(%d)", n))
	}
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// AtActionSeq schedules a at absolute time t under component comp and the
// tie-break seq, which an earlier ReserveSeqs must have handed out. A seq
// the engine has not handed out yet, a time in the past and a nil action
// are model bugs and panic.
func (e *Engine) AtActionSeq(comp CompID, t Time, seq uint64, a Action) {
	if a == nil {
		panic("sim: AtActionSeq called with nil action")
	}
	if seq == 0 || seq > e.seq {
		panic(fmt.Sprintf("sim: seq %d was never reserved (last handed out: %d)", seq, e.seq))
	}
	e.checkTime(t)
	e.push(t, seq, callback{comp: comp, act: a})
}

func (e *Engine) schedule(comp CompID, t Time, fn func()) {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	e.checkTime(t)
	e.seq++
	e.push(t, e.seq, callback{comp: comp, fn: fn})
}

func (e *Engine) scheduleAction(comp CompID, t Time, a Action) {
	if a == nil {
		panic("sim: AtAction called with nil action")
	}
	e.checkTime(t)
	e.seq++
	e.push(t, e.seq, callback{comp: comp, act: a})
}

func (e *Engine) checkTime(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: at=%v now=%v", t, e.now))
	}
}

// push parks cb in the slab and sifts its key up from the tail, moving the
// hole rather than swapping keys.
func (e *Engine) push(t Time, seq uint64, cb callback) {
	var slot uint32
	if f := e.freeSlot; f != 0 {
		slot = f - 1
		e.freeSlot = e.slab[slot].next
		e.slab[slot] = cb
	} else {
		slot = uint32(len(e.slab))
		e.slab = append(e.slab, cb)
	}
	ev := event{at: t, seq: seq, slot: slot}
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.queue = q
	if len(q) > e.hiWater {
		e.hiWater = len(q)
	}
}

// pop removes the earliest key, sifting the tail key down from the root
// into the hole, and returns the key with its callback, whose slab entry
// it frees.
func (e *Engine) pop() (event, callback) {
	q := e.queue
	root := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if right := child + 1; right < n && q[right].before(q[child]) {
				child = right
			}
			if !q[child].before(last) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = last
	}
	e.queue = q
	cb := e.slab[root.slot]
	e.slab[root.slot] = callback{next: e.freeSlot}
	e.freeSlot = root.slot + 1
	return root, cb
}

// Step runs the single earliest pending event and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev, cb := e.pop()
	e.now = ev.at
	e.executed++
	e.inHandler = true
	e.curComp = cb.comp
	switch {
	case e.exec == nil && cb.act != nil:
		cb.act.RunAction(e.now)
	case e.exec == nil:
		cb.fn()
	case cb.act != nil:
		// Profiled runs wrap the action in an adapter closure. That
		// allocation is acceptable: the allocs/event baseline is collected
		// with the executor detached, and attaching a profiler never
		// changes simulation results, only host-side cost.
		act := cb.act
		e.exec.ExecEvent(cb.comp, func() { act.RunAction(e.now) })
	default:
		e.exec.ExecEvent(cb.comp, cb.fn)
	}
	e.curComp = 0
	e.inHandler = false
	return true
}

// SetHostClock injects the monotonic host-nanosecond reader a host
// wall-clock budget measures against (callers pass prof.HostNanos). The
// engine never reads the wall clock itself: host time is a budget input
// only and can never influence event order, so budgeted and unbudgeted
// runs of the same workload stay bit-identical right up to the cutoff.
func (e *Engine) SetHostClock(clock func() int64) { e.hostClock = clock }

// SetBudget arms a run budget: Run returns StopMaxEvents after maxEvents
// further events, or StopMaxHost once maxHost of host wall-clock time has
// elapsed across budgeted runs (checked every hostBudgetCheckInterval
// events through the injected SetHostClock reader). A zero value disarms
// that dimension; SetBudget(0, 0) removes the budget entirely. A budget
// stop preserves the pending queue, so the caller can inspect it or
// resume with a fresh budget.
func (e *Engine) SetBudget(maxEvents uint64, maxHost time.Duration) {
	e.budgetEvents = maxEvents
	e.budgetHost = maxHost.Nanoseconds()
	e.budgetStart = e.executed
	e.hostArmed = false
}

// BudgetUsed reports how many events have run since the budget was armed
// (0 when SetBudget was never called).
func (e *Engine) BudgetUsed() uint64 { return e.executed - e.budgetStart }

// Run executes events until the queue drains or the armed budget runs
// out. It returns the time of the last executed event and the typed
// reason the run ended. Budget checks cost two predictable branches per
// event when disarmed and allocate nothing.
func (e *Engine) Run() (Time, StopReason) {
	if e.budgetHost > 0 && e.hostClock != nil && !e.hostArmed {
		e.hostStart = e.hostClock()
		e.hostArmed = true
	}
	for {
		if len(e.queue) == 0 {
			return e.now, StopDrained
		}
		if e.budgetEvents != 0 && e.executed-e.budgetStart >= e.budgetEvents {
			return e.now, StopMaxEvents
		}
		if e.budgetHost > 0 && e.hostClock != nil &&
			(e.executed-e.budgetStart)%hostBudgetCheckInterval == 0 &&
			e.hostClock()-e.hostStart >= e.budgetHost {
			return e.now, StopMaxHost
		}
		e.Step()
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (even if no event lands exactly there). Events after
// the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d of simulated time from now.
func (e *Engine) RunFor(d units.Duration) { e.RunUntil(e.now.Add(d)) }

// Serializer models an exclusive resource that services work in FIFO order —
// a link transmitting one packet at a time, a DMA engine issuing one TLP per
// pipeline slot. Reserve returns when the reserved slot *starts*; the caller
// schedules its completion callback at start+duration.
type Serializer struct {
	nextFree Time
}

// Reserve books the resource for dur starting no earlier than now, and
// returns the slot's start time. Negative durations panic.
func (s *Serializer) Reserve(now Time, dur units.Duration) Time {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative reservation %v", dur))
	}
	start := now
	if s.nextFree > start {
		start = s.nextFree
	}
	s.nextFree = start.Add(dur)
	return start
}

// NextFree reports when the resource becomes idle again.
func (s *Serializer) NextFree() Time { return s.nextFree }
