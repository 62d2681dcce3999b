package coll

import (
	"strings"
	"testing"

	"tca/internal/core"
	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// TestBarrierBreakdowns runs a traced barrier on an instrumented 4-node
// ring and checks every transaction's hop breakdown: hops are contiguous
// (each hop starts where the previous ended), the hop sum equals the span
// window, and at least one flag store's span crosses a ring chip — the
// dissemination rounds reach distance-2 partners through a forwarding
// PEACH2.
func TestBarrierBreakdowns(t *testing.T) {
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, 4, tcanet.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	set := obsv.NewSet(8192)
	sc.Instrument(set)
	comm, err := core.NewComm(sc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(comm)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	c.Barrier(func(now sim.Time) { fired++ })
	eng.Run()
	if fired != 1 {
		t.Fatalf("barrier fired %d times", fired)
	}

	byTxn := map[uint64][]obsv.Event{}
	for _, ev := range set.Recorder().Events() {
		byTxn[ev.Txn] = append(byTxn[ev.Txn], ev)
	}
	if len(byTxn) == 0 {
		t.Fatal("instrumented barrier recorded no transactions")
	}

	spans, forwarded := 0, false
	for txn, events := range byTxn {
		hops := obsv.Breakdown(events)
		if len(hops) == 0 {
			continue
		}
		spans++
		first, last := events[0].At, events[0].At
		for _, e := range events {
			first, last = min(first, e.At), max(last, e.At)
		}
		if got, want := obsv.TotalLatency(hops), last.Sub(first); got != want {
			t.Errorf("txn %d: hop sum %v != span window %v", txn, got, want)
		}
		for i := 1; i < len(hops); i++ {
			if hops[i].From != hops[i-1].To {
				t.Errorf("txn %d: hop %d starts at %v, previous ended at %v",
					txn, i, hops[i].From, hops[i-1].To)
			}
		}
		// A span that enters one chip's port and leaves another chip's is a
		// forwarded (multi-hop ring) store.
		chips := map[string]bool{}
		for _, ev := range events {
			if ev.Stage == obsv.StagePortIn && strings.HasPrefix(ev.Where, "peach2-") {
				chips[ev.Where] = true
			}
		}
		if len(chips) >= 2 {
			forwarded = true
		}
	}
	if spans == 0 {
		t.Fatal("no multi-event spans recorded")
	}
	if !forwarded {
		t.Error("no barrier store crossed a forwarding chip — distance-2 rounds should")
	}
}
