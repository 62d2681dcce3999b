package sim

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tca/internal/units"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	times := []Time{500, 100, 300, 200, 400}
	for _, at := range times {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events ran out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("ran %d events, want %d", len(got), len(times))
	}
	if e.Now() != 500 {
		t.Fatalf("final time = %v, want 500", e.Now())
	}
}

func TestTiesBreakByScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(42, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order wrong at %d: got %v", i, got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.At(10, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine()
	ran := map[Time]bool{}
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { ran[at] = true })
	}
	e.RunUntil(25)
	if !ran[10] || !ran[20] {
		t.Fatalf("events at/before deadline did not run: %v", ran)
	}
	if ran[30] || ran[40] {
		t.Fatalf("events after deadline ran early: %v", ran)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25 after RunUntil(25)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if !ran[30] || !ran[40] {
		t.Fatal("remaining events never ran")
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	e.RunFor(250)
	if e.Now() != 350 {
		t.Fatalf("Now() = %v, want 350", e.Now())
	}
}

func TestEventsCanScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(units.Nanosecond, recurse)
		}
	}
	e.At(0, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != Time(99*units.Nanosecond) {
		t.Fatalf("Now() = %v, want 99ns", e.Now())
	}
}

func TestExecutedCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 5 {
		t.Fatalf("Executed() = %d, want 5", e.Executed())
	}
}

// Property: for any set of event times, the engine visits them in
// nondecreasing order and ends at the max.
func TestQuickTimestampMonotonicity(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var visited []Time
		var max Time
		for _, r := range raw {
			at := Time(r)
			if at > max {
				max = at
			}
			e.At(at, func() { visited = append(visited, e.Now()) })
		}
		e.Run()
		if len(visited) != len(raw) {
			return false
		}
		for i := 1; i < len(visited); i++ {
			if visited[i] < visited[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializerFIFO(t *testing.T) {
	var s Serializer
	start := s.Reserve(0, 100)
	if start != 0 {
		t.Fatalf("first Reserve start = %v, want 0", start)
	}
	start = s.Reserve(0, 50)
	if start != 100 {
		t.Fatalf("second Reserve start = %v, want 100 (queued behind first)", start)
	}
	if s.NextFree() != 150 {
		t.Fatalf("NextFree = %v, want 150", s.NextFree())
	}
	// After the resource idles, a later request starts immediately.
	start = s.Reserve(1000, 10)
	if start != 1000 {
		t.Fatalf("idle Reserve start = %v, want 1000", start)
	}
}

func TestSerializerNegativePanics(t *testing.T) {
	var s Serializer
	defer func() {
		if recover() == nil {
			t.Fatal("negative reservation did not panic")
		}
	}()
	s.Reserve(0, -5)
}

// Property: serializer reservations never overlap and never start before the
// request time.
func TestQuickSerializerNoOverlap(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Serializer
		now := Time(0)
		var prevEnd Time
		for i := 0; i < int(n%40)+1; i++ {
			now = now.Add(units.Duration(rng.Intn(200)))
			dur := units.Duration(rng.Intn(300))
			start := s.Reserve(now, dur)
			if start < now {
				return false
			}
			if start < prevEnd {
				return false
			}
			prevEnd = start.Add(dur)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// recordingExecutor captures the (comp, order) pairs the engine hands an
// attached profiler.
type recordingExecutor struct {
	comps []CompID
}

func (r *recordingExecutor) ExecEvent(comp CompID, fn func()) {
	r.comps = append(r.comps, comp)
	fn()
}

func TestExecutorObservesEveryEvent(t *testing.T) {
	e := NewEngine()
	var x recordingExecutor
	e.SetExecutor(&x)
	ran := 0
	e.AtComp(7, 10, func() { ran++ })
	e.AtComp(3, 20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.Run()
	if ran != 3 {
		t.Fatalf("ran %d events, want 3", ran)
	}
	want := []CompID{7, 3, 0}
	for i, c := range x.comps {
		if c != want[i] {
			t.Fatalf("executor comps = %v, want %v", x.comps, want)
		}
	}
	e.SetExecutor(nil)
	e.At(40, func() { ran++ })
	e.Run()
	if len(x.comps) != 3 {
		t.Fatal("detached executor still observed events")
	}
}

func TestComponentTagInheritance(t *testing.T) {
	e := NewEngine()
	var x recordingExecutor
	e.SetExecutor(&x)
	// An event scheduled inside a tagged handler with plain After inherits
	// the handler's tag; an explicit AfterComp overrides it.
	e.AtComp(5, 10, func() {
		e.After(5, func() {})
		e.AfterComp(9, 10, func() {})
	})
	e.Run()
	want := []CompID{5, 5, 9}
	if len(x.comps) != len(want) {
		t.Fatalf("observed %d events, want %d", len(x.comps), len(want))
	}
	for i := range want {
		if x.comps[i] != want[i] {
			t.Fatalf("comps = %v, want %v", x.comps, want)
		}
	}
	if e.curComp != 0 {
		t.Fatalf("curComp = %d between events, want 0", e.curComp)
	}
}

func TestTaggedRunMatchesUntagged(t *testing.T) {
	// Same workload scheduled with and without component tags must execute
	// in the same order: tags are inert metadata.
	run := func(tagged bool) []Time {
		e := NewEngine()
		var visited []Time
		for i, at := range []Time{300, 100, 100, 200, 50} {
			if tagged {
				e.AtComp(CompID(i+1), at, func() { visited = append(visited, e.Now()) })
			} else {
				e.At(at, func() { visited = append(visited, e.Now()) })
			}
		}
		e.Run()
		return visited
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tagged order diverged: %v vs %v", a, b)
		}
	}
}

func TestQueueHighWater(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.At(Time(i), func() {})
	}
	if hw := e.QueueHighWater(); hw != 8 {
		t.Fatalf("QueueHighWater = %d, want 8", hw)
	}
	e.Run()
	if hw := e.QueueHighWater(); hw != 8 {
		t.Fatalf("QueueHighWater after drain = %d, want 8 (mark is sticky)", hw)
	}
	e.ResetQueueHighWater()
	if hw := e.QueueHighWater(); hw != 0 {
		t.Fatalf("QueueHighWater after reset = %d, want 0", hw)
	}
	e.At(e.Now()+1, func() {})
	if hw := e.QueueHighWater(); hw != 1 {
		t.Fatalf("QueueHighWater = %d, want 1", hw)
	}
	e.Run()
}

// TestDisabledProfilerPathZeroAllocs pins the engine's hot-path allocation
// contract: with no executor attached, scheduling and running an event
// allocates nothing. This matches the zero-alloc guarantee of the disabled
// obsv paths and is what makes an unprofiled run's GC profile identical to
// the pre-profiler engine. (The old container/heap queue boxed every event
// into an `any`, costing one allocation per push — the hand-rolled heap
// exists precisely to make this test pass.)
func TestDisabledProfilerPathZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the queue's backing array so append growth doesn't count.
	for i := 0; i < 64; i++ {
		e.After(0, fn)
	}
	e.Run()
	if n := testing.AllocsPerRun(200, func() {
		e.After(0, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("disabled-profiler schedule+run allocates %.1f allocs/event, want 0", n)
	}
}

// appendID is an Action that records its id when it runs.
type appendID struct {
	got *[]int
	id  int
}

func (a *appendID) RunAction(Time) { *a.got = append(*a.got, a.id) }

func TestHeapPopOrderMatchesSort(t *testing.T) {
	// The hand-rolled heap must pop in exactly (at, seq) order for any
	// insertion sequence: stable-sorting the seq order by timestamp
	// predicts the execution order, duplicates included. Events whose
	// reserve bit is set take their seq with ReserveSeqs when their turn
	// comes but are only scheduled, with AtActionSeq and in reverse, after
	// every eager one — they must still sort as if scheduled in turn.
	f := func(raw []uint8, reserve []bool) bool {
		e := NewEngine()
		var got []int
		var deferred []func()
		for i, r := range raw {
			i, at := i, Time(r)
			if i < len(reserve) && reserve[i] {
				seq := e.ReserveSeqs(1)
				deferred = append(deferred, func() { e.AtActionSeq(0, at, seq, &appendID{got: &got, id: i}) })
				continue
			}
			e.At(at, func() { got = append(got, i) })
		}
		for i := len(deferred) - 1; i >= 0; i-- {
			deferred[i]()
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		want := make([]int, len(raw))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return raw[want[a]] < raw[want[b]] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReservedSeqRunsBeforeLaterSameTimeEvent(t *testing.T) {
	e := NewEngine()
	var got []int
	seq := e.ReserveSeqs(2)
	e.At(100, func() { got = append(got, 3) })
	e.AtActionSeq(0, 100, seq+1, &appendID{got: &got, id: 2})
	e.AtActionSeq(0, 100, seq, &appendID{got: &got, id: 1})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("run order %v, want [1 2 3]: reserved seqs sort before the later eager event", got)
	}
}

func TestAtActionSeqPanics(t *testing.T) {
	act := &appendID{got: new([]int)}
	cases := []struct {
		name string
		call func(e *Engine, seq uint64)
	}{
		{"seq never reserved", func(e *Engine, seq uint64) { e.AtActionSeq(0, 10, seq+1, act) }},
		{"time in the past", func(e *Engine, seq uint64) { e.AtActionSeq(0, 5, seq, act) }},
		{"nil action", func(e *Engine, seq uint64) { e.AtActionSeq(0, 10, seq, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.At(7, func() {})
			e.Run()
			seq := e.ReserveSeqs(1)
			defer func() {
				if recover() == nil {
					t.Fatalf("AtActionSeq with a %s did not panic", tc.name)
				}
			}()
			tc.call(e, seq)
		})
	}
}

func TestStopThenRerunResumesBitIdentically(t *testing.T) {
	// The same workload executed straight through and executed with a
	// budget stop in the middle plus a second Run must visit identical
	// (time, id) sequences: the stop preserves the queue and the (at, seq)
	// total order.
	workload := func(e *Engine, visit func(id int)) {
		for i, at := range []Time{40, 10, 30, 10, 20, 50, 30} {
			i, at := i, at
			e.At(at, func() {
				visit(i)
				if i%3 == 0 {
					e.After(15, func() { visit(100 + i) })
				}
			})
		}
	}
	type step struct {
		id int
		at Time
	}
	run := func(interrupt bool) []step {
		e := NewEngine()
		var got []step
		workload(e, func(id int) {
			got = append(got, step{id, e.Now()})
		})
		if interrupt {
			e.SetBudget(4, 0)
		}
		if _, reason := e.Run(); interrupt && reason != StopMaxEvents {
			t.Fatalf("interrupted Run reason = %v, want %v", reason, StopMaxEvents)
		}
		if interrupt {
			if len(got) != 4 || e.Pending() == 0 {
				t.Fatalf("budget stop after %d visits with %d pending, want 4 and a non-empty queue", len(got), e.Pending())
			}
			e.SetBudget(0, 0)
			if _, reason := e.Run(); reason != StopDrained {
				t.Fatalf("resumed Run reason = %v, want %v", reason, StopDrained)
			}
		}
		return got
	}
	plain, resumed := run(false), run(true)
	if len(plain) != len(resumed) {
		t.Fatalf("resumed run visited %d events, plain %d", len(resumed), len(plain))
	}
	for i := range plain {
		if plain[i] != resumed[i] {
			t.Fatalf("step %d diverged after resume: %+v vs %+v", i, plain[i], resumed[i])
		}
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(700)
	if e.Now() != 700 {
		t.Fatalf("Now() = %v after RunUntil on an empty queue, want 700", e.Now())
	}
	// A later RunUntil keeps advancing; an earlier one is a no-op, never a
	// rewind.
	e.RunUntil(900)
	if e.Now() != 900 {
		t.Fatalf("Now() = %v, want 900", e.Now())
	}
	e.RunUntil(100)
	if e.Now() != 900 {
		t.Fatalf("RunUntil in the past moved the clock to %v", e.Now())
	}
}

func TestBudgetMaxEventsLeavesQueueIntact(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() { ran++ })
	}
	e.SetBudget(3, 0)
	end, reason := e.Run()
	if reason != StopMaxEvents {
		t.Fatalf("reason = %v, want %v", reason, StopMaxEvents)
	}
	if ran != 3 || e.BudgetUsed() != 3 {
		t.Fatalf("ran %d events (BudgetUsed %d), want 3", ran, e.BudgetUsed())
	}
	if end != 2 || e.Now() != 2 {
		t.Fatalf("clock = %v after 3 events, want 2", e.Now())
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending() = %d after budget stop, want 7 (queue must stay inspectable)", e.Pending())
	}
	// Re-arming the budget resumes exactly where the cutoff left off.
	e.SetBudget(0, 0)
	if _, reason := e.Run(); reason != StopDrained {
		t.Fatalf("resumed reason = %v, want %v", reason, StopDrained)
	}
	if ran != 10 {
		t.Fatalf("ran %d events in total, want 10", ran)
	}
}

func TestBudgetHostClockStops(t *testing.T) {
	e := NewEngine()
	// A self-rescheduling event makes the run unbounded; only the host
	// budget can end it. The fake clock advances one "nanosecond" per
	// read, so the deadline hits on the second budget check.
	var tick func()
	tick = func() { e.After(units.Nanosecond, tick) }
	e.At(0, tick)
	var fake int64
	e.SetHostClock(func() int64 { fake++; return fake })
	e.SetBudget(0, time.Duration(hostBudgetCheckInterval)*time.Nanosecond)
	_, reason := e.Run()
	if reason != StopMaxHost {
		t.Fatalf("reason = %v, want %v", reason, StopMaxHost)
	}
	if e.Pending() == 0 {
		t.Fatal("host-budget stop left no queue to resume")
	}
	if used := e.BudgetUsed(); used == 0 || used%hostBudgetCheckInterval != 0 {
		t.Fatalf("BudgetUsed() = %d, want a positive multiple of the %d-event check interval",
			used, hostBudgetCheckInterval)
	}
}

func TestBudgetErrorWrapsSentinel(t *testing.T) {
	err := error(&BudgetError{Reason: StopMaxEvents, Events: 42})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("BudgetError does not unwrap to ErrBudgetExceeded")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Events != 42 {
		t.Fatalf("errors.As round-trip failed: %+v", be)
	}
	host := error(&BudgetError{Reason: StopMaxHost, Host: time.Second})
	if !strings.Contains(host.Error(), "host clock") {
		t.Fatalf("host-budget message %q does not name the dimension", host.Error())
	}
}

// TestBudgetedRunZeroAllocs pins the acceptance requirement that the
// budget check adds zero allocations to Step/Run: an armed event budget
// (the daemon's default) must not disturb the allocs/event gate.
func TestBudgetedRunZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(0, fn)
	}
	e.Run()
	e.SetHostClock(func() int64 { return 0 })
	e.SetBudget(1<<62, time.Hour)
	if n := testing.AllocsPerRun(200, func() {
		e.After(0, fn)
		e.Run()
	}); n != 0 {
		t.Fatalf("budgeted schedule+run allocates %.1f allocs/event, want 0", n)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(0).Add(500 * units.Nanosecond)
	if a != Time(500*units.Nanosecond) {
		t.Fatalf("Add: got %v", a)
	}
	d := a.Sub(Time(200 * units.Nanosecond))
	if d != 300*units.Nanosecond {
		t.Fatalf("Sub: got %v, want 300ns", d)
	}
	if a.String() != "500ns" {
		t.Fatalf("String: got %q, want 500ns", a.String())
	}
}
