package obsv

import (
	"strings"
	"testing"
)

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(2)
	r.Record(Event{At: 1, Txn: 1, Stage: StageCPUStore})
	r.Record(Event{At: 2, Txn: 1, Stage: StagePortIn})
	r.Record(Event{At: 3, Txn: 1, Stage: StagePortOut})
	if len(r.Events()) != 2 || r.Total() != 3 {
		t.Fatalf("len=%d total=%d, want 2/3", len(r.Events()), r.Total())
	}
	evs := r.Events()
	if evs[0].Stage != StagePortIn || evs[1].Stage != StagePortOut {
		t.Fatalf("oldest event not evicted: %v", evs)
	}
}

func TestRecorderDropsUntraced(t *testing.T) {
	r := NewRecorder(4)
	r.Record(Event{At: 1, Txn: 0, Stage: StagePortIn})
	if len(r.Events()) != 0 {
		t.Fatal("Txn-0 event was retained")
	}
}

func TestNextTxn(t *testing.T) {
	r := NewRecorder(1)
	if a, b := r.NextTxn(), r.NextTxn(); a != 1 || b != 2 {
		t.Fatalf("txn ids = %d, %d, want 1, 2", a, b)
	}
	var nilRec *Recorder
	if nilRec.NextTxn() != 0 {
		t.Fatal("nil recorder allocated a txn")
	}
}

func TestNewRecorderPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewRecorder(0)
}

func TestTxnEventsFilters(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Event{At: 1, Txn: 1, Stage: StageCPUStore})
	r.Record(Event{At: 2, Txn: 2, Stage: StageCPUStore})
	r.Record(Event{At: 3, Txn: 1, Stage: StagePollSeen})
	evs := r.TxnEvents(1)
	if len(evs) != 2 || evs[0].At != 1 || evs[1].At != 3 {
		t.Fatalf("txn 1 events = %v", evs)
	}
}

func TestBreakdownSumsToWindow(t *testing.T) {
	events := []Event{
		{At: 60, Txn: 1, Stage: StagePollSeen, Where: "node1"},
		{At: 10, Txn: 1, Stage: StageCPUStore, Where: "node0"},
		{At: 30, Txn: 1, Stage: StagePortIn, Where: "peach2-0", Port: "N"},
	}
	hops := Breakdown(events)
	if len(hops) != 2 {
		t.Fatalf("hops = %d, want 2", len(hops))
	}
	if hops[0].Dur != 20 || hops[1].Dur != 30 {
		t.Fatalf("hop durations = %v, %v, want 20ps, 30ps", hops[0].Dur, hops[1].Dur)
	}
	if hops[0].From.Stage != StageCPUStore {
		t.Fatalf("breakdown not time-sorted: %+v", hops[0])
	}
	first, last := spanWindow(events)
	if TotalLatency(hops) != last.Sub(first) {
		t.Fatalf("hop sum %v != window %v", TotalLatency(hops), last.Sub(first))
	}
	if lbl := hops[0].Label(); !strings.Contains(lbl, "node0:cpu-store") || !strings.Contains(lbl, "peach2-0:port-in[N]") {
		t.Fatalf("hop label = %q", lbl)
	}
	if Breakdown(events[:1]) != nil {
		t.Fatal("single event produced hops")
	}
}

func TestStageStrings(t *testing.T) {
	for s := StageCPUStore; s <= StageChainDone; s++ {
		if strings.HasPrefix(s.String(), "Stage(") {
			t.Errorf("stage %d has no name", s)
		}
	}
	if Stage(200).String() != "Stage(200)" {
		t.Error("unknown stage fallback broken")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 5, Txn: 3, Stage: StageRoute, Where: "peach2-1", Port: "E", Addr: 0x1000, Note: "east"}
	s := e.String()
	for _, want := range []string{"txn=3", "route", "peach2-1", "port=E", "addr=0x1000", "east"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestWriteBreakdown(t *testing.T) {
	events := []Event{
		{At: 0, Txn: 1, Stage: StageCPUStore, Where: "node0"},
		{At: 1_000_000, Txn: 1, Stage: StagePollSeen, Where: "node1"},
	}
	var sb strings.Builder
	WriteBreakdown(&sb, Breakdown(events))
	out := sb.String()
	if !strings.Contains(out, "node0:cpu-store -> node1:poll-seen") || !strings.Contains(out, "total") {
		t.Errorf("breakdown table:\n%s", out)
	}
	sb.Reset()
	WriteBreakdown(&sb, nil)
	if !strings.Contains(sb.String(), "(no hops recorded)") {
		t.Errorf("empty breakdown = %q", sb.String())
	}
}

func TestRecordDisabledZeroAlloc(t *testing.T) {
	var r *Recorder
	ev := Event{At: 1, Txn: 1, Stage: StagePortIn}
	if n := testing.AllocsPerRun(100, func() { r.Record(ev) }); n != 0 {
		t.Fatalf("disabled Record allocates %.1f per run", n)
	}
}
