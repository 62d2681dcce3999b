package critpath

import (
	"encoding/json"
	"fmt"
	"io"

	"tca/internal/units"
)

// ReportSchema versions the JSON budget report tcatrace -json writes.
const ReportSchema = "tca-critpath-report/2"

// Report is the machine-readable latency-anatomy report.
type Report struct {
	Schema       string      `json:"schema"`
	Scenario     string      `json:"scenario"`
	Transactions int         `json:"transactions"`
	Consistent   bool        `json:"consistent"`
	Evicted      uint64      `json:"spans_evicted"`
	Recorded     uint64      `json:"spans_recorded"`
	Buckets      []BucketRow `json:"buckets"`
	LadderUS     LadderRow   `json:"ladder_us"`
	Txns         []TxnBudget `json:"txns"`
	Top          []TxnRow    `json:"top_transactions"`
	Model        []ModelDiff `json:"model,omitempty"`
	Inconsistent []uint64    `json:"inconsistent_txns,omitempty"`
}

// BucketRow is one bucket's fleet-wide charge. ObservedWaitNS is the
// matched queue-enter→queue-exit time for wait buckets — it can exceed the
// critical-path charge when waits overlap the transaction's own traffic.
type BucketRow struct {
	Bucket         string  `json:"bucket"`
	TotalNS        float64 `json:"total_ns"`
	SharePct       float64 `json:"share_pct"`
	ObservedWaitNS float64 `json:"observed_wait_ns,omitempty"`
}

// LadderRow is the percentile ladder over end-to-end latencies.
type LadderRow struct {
	N    int     `json:"n"`
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	Mean float64 `json:"mean"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// TxnBudget is one transaction's latency budget in issue order: its
// end-to-end latency and the nonzero buckets it partitions into, both in
// nanoseconds.
type TxnBudget struct {
	Txn      uint64             `json:"txn"`
	TotalNS  float64            `json:"total_ns"`
	BudgetNS map[string]float64 `json:"budget_ns"`
}

// TxnRow is one slow transaction with its blocking cause.
type TxnRow struct {
	Txn          uint64  `json:"txn"`
	TotalUS      float64 `json:"total_us"`
	WaitUS       float64 `json:"wait_us"`
	DominantWait string  `json:"dominant_wait,omitempty"`
}

// ExportReport freezes the fleet into its JSON report form. model may be
// nil for scenarios without an analytical prediction; topK bounds the
// slowest-transaction list as in Fleet.TopK.
func ExportReport(f *Fleet, model []ModelDiff, topK int) Report {
	r := Report{
		Schema:       ReportSchema,
		Scenario:     f.Scenario,
		Transactions: len(f.Budgets),
		Consistent:   f.Consistent(),
		Evicted:      f.Evicted,
		Recorded:     f.Recorded,
		Model:        model,
	}
	for i := Bucket(0); i < NumBuckets; i++ {
		d, w := f.Totals[i], f.WaitTotals[i]
		if d == 0 && w == 0 && i != BucketUnattributed {
			continue
		}
		row := BucketRow{Bucket: i.String(), TotalNS: d.Nanoseconds(),
			ObservedWaitNS: w.Nanoseconds()}
		if f.GrandTotal > 0 {
			row.SharePct = 100 * d.Picoseconds() / f.GrandTotal.Picoseconds()
		}
		r.Buckets = append(r.Buckets, row)
	}
	r.LadderUS = LadderRow{
		N: f.Ladder.N, Min: f.Ladder.Min, P50: f.Ladder.Median,
		Mean: f.Ladder.Mean, P95: f.Ladder.P95, P99: f.Ladder.P99,
		P999: f.Ladder.P999, Max: f.Ladder.Max,
	}
	for _, b := range f.Budgets {
		row := TxnBudget{Txn: b.Txn, TotalNS: b.Total.Nanoseconds(), BudgetNS: map[string]float64{}}
		for i, d := range b.Buckets {
			if d != 0 {
				row.BudgetNS[Bucket(i).String()] = d.Nanoseconds()
			}
		}
		r.Txns = append(r.Txns, row)
	}
	for _, b := range f.TopK(topK) {
		row := TxnRow{Txn: b.Txn, TotalUS: b.Total.Microseconds(), WaitUS: b.Wait().Microseconds()}
		if w, d := b.DominantWait(); d > 0 {
			row.DominantWait = w.String()
		}
		r.Top = append(r.Top, row)
	}
	for _, b := range f.Budgets {
		if !b.Consistent() {
			r.Inconsistent = append(r.Inconsistent, b.Txn)
		}
	}
	return r
}

// WriteJSON emits the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteBudgetTable renders the fleet's per-bucket budget table: total
// charge, share of all transaction time, and per-transaction mean.
func WriteBudgetTable(w io.Writer, f *Fleet) {
	fmt.Fprintf(w, "latency budget (%d transactions, %v total):\n", len(f.Budgets), f.GrandTotal)
	for i := Bucket(0); i < NumBuckets; i++ {
		d, ow := f.Totals[i], f.WaitTotals[i]
		if d == 0 && ow == 0 {
			continue
		}
		share := 0.0
		if f.GrandTotal > 0 {
			share = 100 * d.Picoseconds() / f.GrandTotal.Picoseconds()
		}
		mean := d
		if len(f.Budgets) > 0 {
			mean = d / units.Duration(len(f.Budgets))
		}
		line := fmt.Sprintf("  %-26s %14v  %6.2f%%  (mean %v/txn)", i, d, share, mean)
		if ow > 0 {
			line += fmt.Sprintf("  [observed wait %v]", ow)
		}
		fmt.Fprintln(w, line)
	}
	if !f.Consistent() {
		fmt.Fprintf(w, "  WARNING: budgets do not partition end-to-end latency\n")
	}
}

// WriteLadder renders the fleet percentile ladder in microseconds.
func WriteLadder(w io.Writer, f *Fleet) {
	fmt.Fprintf(w, "end-to-end latency ladder (us, %d transactions):\n", f.Ladder.N)
	f.Ladder.WriteTable(w)
}

// WriteTopK renders the k slowest transactions with their blocking causes.
func WriteTopK(w io.Writer, f *Fleet, k int) {
	top := f.TopK(k)
	fmt.Fprintf(w, "slowest %d transactions:\n", len(top))
	for _, b := range top {
		line := fmt.Sprintf("  txn %-6d total %12v  wait %12v", b.Txn, b.Total, b.Wait())
		if cause, d := b.DominantWait(); d > 0 {
			line += fmt.Sprintf("  blocked-on %s (%v)", cause, d)
		}
		fmt.Fprintln(w, line)
	}
}

// WriteModel renders the measured-vs-predicted comparison rows.
func WriteModel(w io.Writer, diffs []ModelDiff) {
	if len(diffs) == 0 {
		return
	}
	fmt.Fprintf(w, "analytical-model comparison (us):\n")
	for _, d := range diffs {
		fmt.Fprintf(w, "  %-12s predicted %8.4f  measured %8.4f  (%+.2f%%)\n",
			d.Name, d.PredictedUS, d.MeasuredUS, d.DiffPct)
	}
}
