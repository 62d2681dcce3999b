package obsv

import (
	"bytes"
	"strings"
	"testing"

	"tca/internal/sim"
)

func TestNilSeriesIsDisabled(t *testing.T) {
	var s *Series
	s.Append(1, 2)
	if s.ID() != "" || len(s.Samples()) != 0 || s.Samples() != nil {
		t.Fatal("nil series reported data")
	}
	if _, ok := lastSample(s); ok {
		t.Fatal("nil series has a last sample")
	}
	if s.Max() != 0 || s.Mean() != 0 || s.ActiveMean() != 0 {
		t.Fatal("nil series has nonzero statistics")
	}
}

func TestSeriesID(t *testing.T) {
	if got := NewSeries("link_util", "link:a", "ab", "%", 4).ID(); got != "link_util link:a[ab]" {
		t.Fatalf("labeled ID = %q", got)
	}
	if got := NewSeries("host_time", "prof", "", "us", 4).ID(); got != "host_time prof" {
		t.Fatalf("unlabeled ID = %q", got)
	}
}

func TestSeriesRingEvictionOldestFirst(t *testing.T) {
	s := NewSeries("x", "c", "", "", 4)
	for i := 1; i <= 6; i++ {
		s.Append(sim.Time(i), float64(i))
	}
	if len(s.samples) != 4 {
		t.Fatalf("len = %d, want 4 (capacity)", len(s.samples))
	}
	got := s.Samples()
	for i, want := range []float64{3, 4, 5, 6} {
		if got[i].V != want || got[i].At != sim.Time(want) {
			t.Fatalf("Samples() = %v, want oldest-first 3..6", got)
		}
	}
	last, ok := lastSample(s)
	if !ok || last.V != 6 {
		t.Fatalf("Last = %v, %v", last, ok)
	}
}

func TestSeriesStatistics(t *testing.T) {
	s := NewSeries("x", "c", "", "", 8)
	for _, v := range []float64{0, 4, 0, 8} {
		s.Append(s.mustNextTime(), v)
	}
	if s.Max() != 8 {
		t.Fatalf("Max = %g", s.Max())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	// ActiveMean ignores the idle zeros: (4+8)/2.
	if s.ActiveMean() != 6 {
		t.Fatalf("ActiveMean = %g", s.ActiveMean())
	}
	empty := NewSeries("y", "c", "", "", 8)
	if empty.Mean() != 0 || empty.ActiveMean() != 0 || empty.Max() != 0 {
		t.Fatal("empty series has nonzero statistics")
	}
}

// mustNextTime appends at strictly increasing times without the test
// tracking a counter.
func (s *Series) mustNextTime() sim.Time {
	if n := len(s.samples); n > 0 {
		last, _ := lastSample(s)
		return last.At + 1
	}
	return 1
}

func TestTimelineRegistryAndLookup(t *testing.T) {
	var nilTL *Timeline
	nilTL.Add(NewSeries("x", "c", "", "", 4))
	if nilTL.Series() != nil || nilTL.Select("x") != nil || nilTL.Find("x", "c", "") != nil {
		t.Fatal("nil timeline reported series")
	}

	tl := &Timeline{}
	a := NewSeries("link_util", "link:a", "ab", "%", 4)
	b := NewSeries("link_util", "link:a", "ba", "%", 4)
	c := NewSeries("dma_busy", "dmac", "", "%", 4)
	tl.Add(a)
	tl.Add(b)
	tl.Add(c)
	tl.Add(nil) // ignored
	if got := tl.Series(); len(got) != 3 || got[0] != a || got[2] != c {
		t.Fatalf("Series() = %v", got)
	}
	if got := tl.Select("link_util"); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Select = %v", got)
	}
	if tl.Find("link_util", "link:a", "ba") != b {
		t.Fatal("Find missed the labeled series")
	}
	if tl.Find("link_util", "link:a", "zz") != nil {
		t.Fatal("Find matched a nonexistent label")
	}
}

func TestTopSeriesOrdersByMax(t *testing.T) {
	mk := func(name string, vs ...float64) *Series {
		s := NewSeries(name, "c", "", "", 8)
		for i, v := range vs {
			s.Append(sim.Time(i+1), v)
		}
		return s
	}
	hot := mk("hot", 1, 9)
	warm := mk("warm", 5)
	cold := mk("cold", 1)
	cold2 := mk("cold2", 1)
	top := TopSeries([]*Series{cold2, warm, hot, cold}, 3)
	if len(top) != 3 || top[0] != hot || top[1] != warm {
		t.Fatalf("TopSeries order wrong: %v", top)
	}
	// Ties break by ID, and n=0 means all.
	all := TopSeries([]*Series{cold2, cold}, 0)
	if len(all) != 2 || all[0] != cold || all[1] != cold2 {
		t.Fatalf("tie order: %v %v", all[0].ID(), all[1].ID())
	}
}

func TestWriteSeriesTableAlignsTicks(t *testing.T) {
	a := NewSeries("u", "a", "", "%", 8)
	b := NewSeries("u", "b", "", "%", 8)
	// b misses the middle tick; the table renders "-" there.
	a.Append(1_000_000, 10)
	a.Append(2_000_000, 20)
	a.Append(3_000_000, 30)
	b.Append(1_000_000, 1)
	b.Append(3_000_000, 3)
	var buf bytes.Buffer
	WriteSeriesTable(&buf, []*Series{a, b}, 0)
	out := buf.String()
	for _, want := range []string{"u a(%)", "u b(%)", "10.0", "30.0", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 4 { // header + 3 ticks
		t.Fatalf("table has %d lines, want 4:\n%s", lines, out)
	}
	// Strided: 3 ticks into maxRows=2 keeps the first and always the last.
	buf.Reset()
	WriteSeriesTable(&buf, []*Series{a, b}, 2)
	out = buf.String()
	if strings.Contains(out, "20.0") || !strings.Contains(out, "30.0") {
		t.Fatalf("striding kept the wrong rows:\n%s", out)
	}
}

// lastSample returns the most recent sample of the ring.
func lastSample(s *Series) (Sample, bool) {
	if s == nil || len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[(s.next-1+len(s.samples))%len(s.samples)], true
}
