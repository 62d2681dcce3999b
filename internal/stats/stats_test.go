package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.StdDev, want)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.Median != 7 || s.StdDev != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample did not panic")
		}
	}()
	Summarize(nil)
}

// Property: Min ≤ Median ≤ Max and Min ≤ Mean ≤ Max.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Bound magnitudes so the mean's running sum cannot
			// overflow — measurements are GB/s and ns, not 1e308.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	// 1..100: nearest-rank p95 is the 95th element, p99 the 99th.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.P95 != 95 || s.P99 != 99 {
		t.Fatalf("p95=%v p99=%v, want 95/99", s.P95, s.P99)
	}
	// Small samples degrade to the max, never past it.
	s = Summarize([]float64{3, 1, 2})
	if s.P95 != 3 || s.P99 != 3 {
		t.Fatalf("small-sample p95=%v p99=%v, want 3/3", s.P95, s.P99)
	}
}

func TestSummaryString(t *testing.T) {
	got := Summarize([]float64{1, 2}).String()
	if got == "" {
		t.Fatal("empty String()")
	}
}
