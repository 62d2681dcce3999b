package obsv

import (
	"strings"
	"testing"

	"tca/internal/sim"
)

// TestBreakdownOutOfOrderArrival: events recorded out of time order (a
// callback racing a link arrival in the same tick batch) still produce a
// time-sorted breakdown whose hop sum equals the span window, with
// recording order preserved for equal timestamps.
func TestBreakdownOutOfOrderArrival(t *testing.T) {
	events := []Event{
		{At: 50, Txn: 1, Stage: StageHostWrite, Where: "node1.rc"},
		{At: 10, Txn: 1, Stage: StageCPUStore, Where: "node0"},
		{At: 50, Txn: 1, Stage: StagePollSeen, Where: "node1"},
		{At: 20, Txn: 1, Stage: StageLinkTx, Where: "link"},
	}
	hops := Breakdown(events)
	if len(hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(hops))
	}
	wantOrder := []Stage{StageCPUStore, StageLinkTx, StageHostWrite, StagePollSeen}
	for i, h := range hops {
		if h.From.Stage != wantOrder[i] || h.To.Stage != wantOrder[i+1] {
			t.Fatalf("hop %d is %v -> %v, want %v -> %v",
				i, h.From.Stage, h.To.Stage, wantOrder[i], wantOrder[i+1])
		}
	}
	first, last := spanWindow(events)
	if TotalLatency(hops) != last.Sub(first) {
		t.Fatalf("hop sum %v != window %v", TotalLatency(hops), last.Sub(first))
	}
	// The tied pair (At=50) must keep recording order: host-write before
	// poll-seen, as a zero-duration hop.
	if hops[2].Dur != 0 {
		t.Fatalf("tied-timestamp hop has duration %v, want 0", hops[2].Dur)
	}
}

// TestBreakdownInterleavedTxns: two transactions recorded interleaved into
// one ring stay fully separated — each TxnEvents slice reconstructs its own
// exact window with no cross-contamination.
func TestBreakdownInterleavedTxns(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{At: 10, Txn: 1, Stage: StageCPUStore})
	r.Record(Event{At: 12, Txn: 2, Stage: StageCPUStore})
	r.Record(Event{At: 20, Txn: 2, Stage: StageLinkTx})
	r.Record(Event{At: 25, Txn: 1, Stage: StageLinkTx})
	r.Record(Event{At: 30, Txn: 1, Stage: StagePollSeen})
	r.Record(Event{At: 44, Txn: 2, Stage: StagePollSeen})
	for _, c := range []struct {
		txn    uint64
		events int
		total  int64
	}{{1, 3, 20}, {2, 3, 32}} {
		evs := r.TxnEvents(c.txn)
		if len(evs) != c.events {
			t.Fatalf("txn %d has %d events, want %d", c.txn, len(evs), c.events)
		}
		for _, e := range evs {
			if e.Txn != c.txn {
				t.Fatalf("txn %d slice contains foreign event %v", c.txn, e)
			}
		}
		if got := TotalLatency(Breakdown(evs)); int64(got) != c.total {
			t.Fatalf("txn %d total %v, want %dps", c.txn, got, c.total)
		}
	}
}

// TestBreakdownSingleEvent: a transaction with one retained event has no
// hops and zero total — never a panic or a negative window.
func TestBreakdownSingleEvent(t *testing.T) {
	r := NewRecorder(4)
	r.Record(Event{At: 7, Txn: 9, Stage: StageDoorbell})
	evs := r.TxnEvents(9)
	if len(evs) != 1 {
		t.Fatalf("retained %d events, want 1", len(evs))
	}
	if hops := Breakdown(evs); hops != nil {
		t.Fatalf("single event produced hops %v", hops)
	}
	if TotalLatency(nil) != 0 {
		t.Fatal("nil breakdown has nonzero total")
	}
}

// TestBreakdownAfterEviction: when the ring wraps mid-transaction the
// oldest events are lost; the surviving suffix still forms a valid (if
// truncated) breakdown, and the recorder reports the loss via Evicted().
func TestBreakdownAfterEviction(t *testing.T) {
	r := NewRecorder(3)
	r.Record(Event{At: 10, Txn: 1, Stage: StageCPUStore})
	r.Record(Event{At: 20, Txn: 1, Stage: StageLinkTx})
	r.Record(Event{At: 30, Txn: 1, Stage: StagePortIn})
	r.Record(Event{At: 40, Txn: 1, Stage: StageHostWrite}) // evicts the store
	r.Record(Event{At: 50, Txn: 1, Stage: StagePollSeen})  // evicts the link-tx
	if r.Evicted() != 2 {
		t.Fatalf("Evicted() = %d, want 2", r.Evicted())
	}
	evs := r.TxnEvents(1)
	if len(evs) != 3 || evs[0].Stage != StagePortIn {
		t.Fatalf("surviving events = %v", evs)
	}
	hops := Breakdown(evs)
	if TotalLatency(hops) != 20 {
		t.Fatalf("truncated total %v, want 20ps", TotalLatency(hops))
	}
}

// TestRecorderEvicted: the counter is nil-safe, zero before any wrap, and
// mirrored into the metrics registry when the recorder belongs to a Set.
func TestRecorderEvicted(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Evicted() != 0 {
		t.Fatal("nil recorder reports evictions")
	}
	set := NewSet(2)
	rec := set.Recorder()
	rec.Record(Event{At: 1, Txn: 1, Stage: StageCPUStore})
	rec.Record(Event{At: 2, Txn: 1, Stage: StageLinkTx})
	if rec.Evicted() != 0 {
		t.Fatalf("Evicted() = %d before wrap, want 0", rec.Evicted())
	}
	rec.Record(Event{At: 3, Txn: 1, Stage: StagePollSeen})
	if rec.Evicted() != 1 {
		t.Fatalf("Evicted() = %d after wrap, want 1", rec.Evicted())
	}
	snap := set.Registry().Snapshot(0)
	found := false
	for _, c := range snap.Counters {
		if c.Name == "span_evictions" && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("span_evictions counter not mirrored into snapshot: %+v", snap.Counters)
	}
}

// TestCauseStrings: every cause has a name and shows up in Event.String.
func TestCauseStrings(t *testing.T) {
	for c := CauseCredits; c <= CauseLinkDown; c++ {
		if strings.HasPrefix(c.String(), "Cause(") {
			t.Errorf("cause %d has no name", c)
		}
	}
	if CauseNone.String() != "none" {
		t.Errorf("CauseNone = %q", CauseNone.String())
	}
	if Cause(200).String() != "Cause(200)" {
		t.Error("unknown cause fallback broken")
	}
	e := Event{At: 1, Txn: 2, Stage: StageQueueExit, Where: "link", Cause: CauseCredits}
	if s := e.String(); !strings.Contains(s, "blocked-on=credits-exhausted") {
		t.Errorf("event string %q missing blocked-on", s)
	}
}

// TestPerfettoWaitSlices: a traced wait pair renders as a full-duration
// wait slice named by its cause plus a blocked-on flow arrow, and the
// queue-exit hop slice carries the cause too.
func TestPerfettoWaitSlices(t *testing.T) {
	events := []Event{
		{At: 0, Txn: 1, Stage: StageCPUStore, Where: "node0"},
		{At: 100, Txn: 1, Stage: StageQueueEnter, Where: "link", Cause: CauseCredits},
		{At: 500, Txn: 1, Stage: StageLinkTx, Where: "link"},
		{At: 900, Txn: 1, Stage: StageQueueExit, Where: "link", Cause: CauseCredits},
		{At: 1000, Txn: 1, Stage: StagePollSeen, Where: "node1"},
	}
	tes := PerfettoEvents(events, nil)
	var hopWait, fullWait, flowS, flowF bool
	for _, te := range tes {
		switch {
		case te.Name == "wait:credits-exhausted" && te.Cat == "wait" && te.Ph == "X":
			if te.Dur == psToUS(800) {
				fullWait = true // the matched-pair slice spans enter→exit
			} else {
				hopWait = true // the hop slice covers only the tail
			}
		case te.Cat == "blocked-on" && te.Ph == "s":
			flowS = true
		case te.Cat == "blocked-on" && te.Ph == "f":
			flowF = true
		}
	}
	if !hopWait || !fullWait || !flowS || !flowF {
		t.Fatalf("wait rendering incomplete: hop=%v full=%v s=%v f=%v", hopWait, fullWait, flowS, flowF)
	}
}

// TestWaitStageStrings extends the stage-name check over the wait-edge
// stages appended for the latency anatomy.
func TestWaitStageStrings(t *testing.T) {
	for s := StageReplay; s <= StageQueueExit; s++ {
		if strings.HasPrefix(s.String(), "Stage(") {
			t.Errorf("stage %d has no name", s)
		}
	}
}

// spanWindow reports the first and last timestamps of a set of events.
func spanWindow(events []Event) (first, last sim.Time) {
	for i, e := range events {
		if i == 0 || e.At < first {
			first = e.At
		}
		if e.At > last {
			last = e.At
		}
	}
	return first, last
}
