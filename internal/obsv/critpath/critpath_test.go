package critpath

import (
	"math"
	"strings"
	"testing"

	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/stats"
	"tca/internal/units"
)

// pioEvents is a synthetic one-leg PIO span: store → switch → link → chip
// pipeline → host write → poll.
func pioEvents() []obsv.Event {
	return []obsv.Event{
		{At: 0, Txn: 1, Stage: obsv.StageCPUStore, Where: "node0"},
		{At: 150_000, Txn: 1, Stage: obsv.StageSwitch, Where: "node0.sock0"},
		{At: 270_000, Txn: 1, Stage: obsv.StageLinkTx, Where: "link:peach2-0.N"},
		{At: 290_000, Txn: 1, Stage: obsv.StagePortIn, Where: "peach2-0"},
		{At: 390_000, Txn: 1, Stage: obsv.StageRoute, Where: "peach2-0"},
		{At: 400_000, Txn: 1, Stage: obsv.StagePortOut, Where: "peach2-0"},
		{At: 600_000, Txn: 1, Stage: obsv.StageHostWrite, Where: "node1.rc"},
		{At: 660_000, Txn: 1, Stage: obsv.StagePollSeen, Where: "node1"},
	}
}

func TestBudgetPartitionsExactly(t *testing.T) {
	b := BudgetOf(pioEvents())
	if !b.Consistent() {
		t.Fatalf("budget inconsistent: sum %v, total %v, unattributed %v",
			b.Sum(), b.Total, b.Buckets[BucketUnattributed])
	}
	if b.Total != 660_000 {
		t.Fatalf("total %v, want 660ns", b.Total)
	}
	// cpu-store→switch is software; switch→link-tx is the crossbar.
	if b.Buckets[BucketSoftware] != 150_000+60_000 {
		t.Fatalf("software = %v, want 210ns", b.Buckets[BucketSoftware])
	}
	if b.Buckets[BucketSwitch] != 120_000+100_000+10_000 {
		t.Fatalf("switch = %v, want 230ns", b.Buckets[BucketSwitch])
	}
	if b.Buckets[BucketDMAEngine] != 0 {
		t.Fatalf("PIO leg charged dma-engine %v", b.Buckets[BucketDMAEngine])
	}
}

func TestBudgetChargesWaitHops(t *testing.T) {
	events := []obsv.Event{
		{At: 0, Txn: 2, Stage: obsv.StageCPUStore, Where: "node0"},
		{At: 100, Txn: 2, Stage: obsv.StageQueueEnter, Where: "link", Cause: obsv.CauseCredits},
		{At: 900, Txn: 2, Stage: obsv.StageQueueExit, Where: "link", Cause: obsv.CauseCredits},
		{At: 1000, Txn: 2, Stage: obsv.StageLinkTx, Where: "link"},
	}
	b := BudgetOf(events)
	if !b.Consistent() {
		t.Fatalf("budget inconsistent: %+v", b)
	}
	if b.Buckets[BucketWaitCredits] != 800 {
		t.Fatalf("credit wait charged %v, want 800ps", b.Buckets[BucketWaitCredits])
	}
	if b.Waits[BucketWaitCredits] != 800 {
		t.Fatalf("observed credit wait %v, want 800ps", b.Waits[BucketWaitCredits])
	}
	if cause, d := b.DominantWait(); cause != BucketWaitCredits || d != 800 {
		t.Fatalf("dominant wait = %v (%v)", cause, d)
	}
}

// TestObservedWaitUnderInterleaving: a wait pair overlapped by the
// transaction's own traffic keeps only the tail on the critical path but
// the full duration in the observed attribution.
func TestObservedWaitUnderInterleaving(t *testing.T) {
	events := []obsv.Event{
		{At: 0, Txn: 3, Stage: obsv.StageDoorbell, Where: "peach2-0"},
		{At: 100, Txn: 3, Stage: obsv.StageQueueEnter, Where: "peach2-0", Cause: obsv.CauseChainSerialization},
		{At: 500, Txn: 3, Stage: obsv.StageLinkTx, Where: "link"}, // overlapping traffic
		{At: 900, Txn: 3, Stage: obsv.StageQueueExit, Where: "peach2-0", Cause: obsv.CauseChainSerialization},
		{At: 1000, Txn: 3, Stage: obsv.StageDMAIssue, Where: "peach2-0"},
	}
	b := BudgetOf(events)
	if !b.Consistent() {
		t.Fatalf("budget inconsistent: %+v", b)
	}
	if b.Buckets[BucketWaitChainSer] != 400 {
		t.Fatalf("critical-path chain wait %v, want tail 400ps", b.Buckets[BucketWaitChainSer])
	}
	if b.Waits[BucketWaitChainSer] != 800 {
		t.Fatalf("observed chain wait %v, want full 800ps", b.Waits[BucketWaitChainSer])
	}
}

func TestBudgetEmptyAndSingle(t *testing.T) {
	if b := BudgetOf(nil); !b.Consistent() || b.Total != 0 {
		t.Fatalf("empty budget = %+v", b)
	}
	one := []obsv.Event{{At: 5, Txn: 4, Stage: obsv.StageDoorbell}}
	if b := BudgetOf(one); !b.Consistent() || b.Total != 0 || b.Txn != 4 {
		t.Fatalf("single-event budget = %+v", b)
	}
}

// TestClassifyCoversAllStages: every recorded stage lands in a real bucket
// — the acceptance property that no healthy trace produces unattributed
// time.
func TestClassifyCoversAllStages(t *testing.T) {
	for s := obsv.StageCPUStore; s <= obsv.StageQueueExit; s++ {
		h := obsv.Hop{
			From: obsv.Event{Stage: obsv.StageCPUStore},
			To:   obsv.Event{Stage: s, Cause: obsv.CauseCredits},
		}
		if got := Classify(h); got == BucketUnattributed {
			t.Errorf("stage %v classifies as unattributed", s)
		}
	}
}

func TestBucketStrings(t *testing.T) {
	for b := Bucket(0); b < NumBuckets; b++ {
		if strings.HasPrefix(b.String(), "Bucket(") {
			t.Errorf("bucket %d has no name", b)
		}
	}
	if !BucketWaitCredits.IsWait() || BucketWire.IsWait() {
		t.Error("IsWait misclassifies")
	}
}

func TestFleetAnalyzeAndTopK(t *testing.T) {
	rec := obsv.NewRecorder(64)
	spans := []struct {
		txn uint64
		dur int64 // picoseconds
	}{{1, 1000}, {2, 3000}, {3, 2000}, {4, 3000}}
	for _, s := range spans {
		rec.Record(obsv.Event{At: 0, Txn: s.txn, Stage: obsv.StageCPUStore, Where: "node0"})
		rec.Record(obsv.Event{At: sim.Time(s.dur), Txn: s.txn, Stage: obsv.StagePollSeen, Where: "node1"})
	}
	f := Analyze("synthetic", rec, []uint64{1, 2, 3, 4})
	if len(f.Budgets) != 4 || !f.Consistent() {
		t.Fatalf("fleet = %+v", f)
	}
	if f.GrandTotal != units.Duration(1000+3000+2000+3000) {
		t.Fatalf("grand total %v", f.GrandTotal)
	}
	if f.Ladder.N != 4 || f.Ladder.P999 != f.Ladder.Max {
		t.Fatalf("ladder %+v", f.Ladder)
	}
	top := f.TopK(3)
	// Slowest first; the 3000ps tie breaks by txn id.
	if len(top) != 3 || top[0].Txn != 2 || top[1].Txn != 4 || top[2].Txn != 3 {
		t.Fatalf("topK order = %v, %v, %v", top[0].Txn, top[1].Txn, top[2].Txn)
	}
	if got := f.TopK(10); len(got) != 4 {
		t.Fatalf("TopK over-asks returned %d", len(got))
	}
}

func TestModelPredictAndCompare(t *testing.T) {
	m := Model{MinPingPongUS: 0.783, PerHopNS: 198, SoftwareNSPerLeg: 210}
	if got := m.PredictUS(0); got != 0.783 {
		t.Fatalf("PredictUS(0) = %g", got)
	}
	if got := m.PredictUS(2); got != 0.783+2*0.198 {
		t.Fatalf("PredictUS(2) = %g", got)
	}
	rec := obsv.NewRecorder(16)
	rec.Record(obsv.Event{At: 0, Txn: 1, Stage: obsv.StageCPUStore, Where: "node0"})
	rec.Record(obsv.Event{At: 981_000, Txn: 1, Stage: obsv.StagePollSeen, Where: "node1"})
	f := Analyze("synthetic ping-pong", rec, []uint64{1})
	diffs := m.CompareFleet(f, 1)
	if len(diffs) != 3 {
		t.Fatalf("comparator rows = %d, want 3", len(diffs))
	}
	leg := diffs[0]
	if leg.Name != "leg" || leg.MeasuredUS != 0.981 || math.Abs(leg.PredictedUS-0.981) > 1e-12 || math.Abs(leg.DiffPct) > 1e-9 {
		t.Fatalf("leg row = %+v", leg)
	}
	if diffs[1].Name != "round-trip" || math.Abs(diffs[1].PredictedUS-1.962) > 1e-12 {
		t.Fatalf("round-trip row = %+v", diffs[1])
	}
	if m.CompareFleet(&Fleet{}, 0) != nil {
		t.Fatal("empty fleet produced comparator rows")
	}
}

func TestExportReportAndRenderers(t *testing.T) {
	b := BudgetOf(pioEvents())
	f := &Fleet{Scenario: "render-test", Budgets: []Budget{b}, GrandTotal: b.Total}
	for i, d := range b.Buckets {
		f.Totals[i] += d
	}
	f.Ladder = stats.Summarize([]float64{b.Total.Microseconds()})
	r := ExportReport(f, nil, 5)
	if r.Schema != ReportSchema || !r.Consistent || r.Transactions != 1 {
		t.Fatalf("report header = %+v", r)
	}
	if len(r.Inconsistent) != 0 {
		t.Fatalf("consistent fleet flagged txns %v", r.Inconsistent)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"schema": "`+ReportSchema+`"`) {
		t.Fatalf("JSON missing schema: %s", sb.String())
	}
	if len(r.Txns) != 1 || r.Txns[0].Txn != b.Txn || r.Txns[0].TotalNS != b.Total.Nanoseconds() {
		t.Fatalf("txn rows = %+v, want the one budget", r.Txns)
	}
	for i, d := range b.Buckets {
		if got, ok := r.Txns[0].BudgetNS[Bucket(i).String()]; ok != (d != 0) || got != d.Nanoseconds() {
			t.Errorf("txn row bucket %v = %v (present %v), budget holds %v", Bucket(i), got, ok, d)
		}
	}
	sb.Reset()
	WriteBudgetTable(&sb, f)
	WriteLadder(&sb, f)
	WriteTopK(&sb, f, 3)
	WriteModel(&sb, []ModelDiff{diffRow("leg", 1, 1.1)})
	out := sb.String()
	for _, want := range []string{"latency budget", "software", "p999", "slowest", "analytical-model", "+10.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("consistent fleet rendered a warning:\n%s", out)
	}
}

// TestTopKBounds: k limits the list, and k ≤ 0 lists every transaction
// instead of slicing out of range.
func TestTopKBounds(t *testing.T) {
	f := &Fleet{Budgets: []Budget{{Txn: 1, Total: 10}, {Txn: 2, Total: 30}, {Txn: 3, Total: 20}}}
	for _, tc := range []struct{ k, want int }{{2, 2}, {3, 3}, {5, 3}, {0, 3}, {-1, 3}} {
		top := f.TopK(tc.k)
		if len(top) != tc.want {
			t.Errorf("TopK(%d) lists %d, want %d", tc.k, len(top), tc.want)
		}
		if top[0].Txn != 2 {
			t.Errorf("TopK(%d) starts at txn %d, want the slowest, 2", tc.k, top[0].Txn)
		}
	}
}

// TestReportFlagsInconsistency: a budget whose buckets do not partition the
// total must surface in the report and the table warning.
func TestReportFlagsInconsistency(t *testing.T) {
	b := Budget{Txn: 7, Total: 1000}
	b.Buckets[BucketUnattributed] = 400
	f := &Fleet{Scenario: "broken", Budgets: []Budget{b}, GrandTotal: 1000}
	f.Totals[BucketUnattributed] = 400
	f.Ladder = stats.Summarize([]float64{b.Total.Microseconds()})
	r := ExportReport(f, nil, 1)
	if r.Consistent || len(r.Inconsistent) != 1 || r.Inconsistent[0] != 7 {
		t.Fatalf("inconsistency not flagged: %+v", r)
	}
	var sb strings.Builder
	WriteBudgetTable(&sb, f)
	if !strings.Contains(sb.String(), "WARNING") {
		t.Fatalf("table missing warning:\n%s", sb.String())
	}
}
