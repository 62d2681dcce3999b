package obsv

import (
	"strings"
	"testing"

	"tca/internal/sim"
	"tca/internal/units"
)

// TestSamplerTicksAndAutoStop drives a sampler over a workload of known
// length and checks the tick train: one sample per interval, deterministic
// stop when the queue drains, restartable for a second phase.
func TestSamplerTicksAndAutoStop(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(16)
	level := 0.0
	series := s.Register("sig", "comp", "", "u", func(sim.Time, units.Duration) float64 { return level })

	// Phase 1: workload events at 0.5 µs spacing out to 5 µs.
	for i := 1; i <= 10; i++ {
		v := float64(i)
		eng.At(sim.Time(i)*sim.Time(500*units.Nanosecond), func() { level = v })
	}
	s.Start(eng, units.Microsecond)
	eng.Run()

	if s.running {
		t.Error("sampler still running after the queue drained")
	}
	// Ticks at 1..5 µs; the 5 µs tick sees an empty queue and stops.
	if got := s.ticks; got != 5 {
		t.Errorf("ticks = %d, want 5", got)
	}
	if got := len(series.Samples()); got != 5 {
		t.Errorf("series length = %d, want 5", got)
	}
	last, ok := lastSample(series)
	if !ok || last.V != 10 {
		t.Errorf("last sample = %+v, want the final level 10", last)
	}

	// Phase 2: restart for a later workload.
	eng.After(3*units.Microsecond, func() { level = 99 })
	s.Start(eng, units.Microsecond)
	eng.Run()
	if s.running {
		t.Error("sampler running after phase 2")
	}
	if got := s.ticks; got <= 5 {
		t.Errorf("phase-2 ticks did not advance: %d", got)
	}
}

// TestSamplerStartValidation locks the misuse panics.
func TestSamplerStartValidation(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(4)
	mustPanic(t, "zero interval", func() { s.Start(eng, 0) })
	eng.After(10*units.Microsecond, func() {})
	s.Start(eng, units.Microsecond)
	mustPanic(t, "double start", func() { s.Start(eng, units.Microsecond) })
	mustPanic(t, "nil probe", func() { s.Register("x", "y", "", "u", nil) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// TestSeriesRingEviction fills past capacity and checks oldest-first order.
func TestSeriesRingEviction(t *testing.T) {
	s := newSeries("sig", "comp", "", "u", 4)
	for i := 1; i <= 6; i++ {
		s.append(sim.Time(i), float64(i))
	}
	samples := s.Samples()
	if len(samples) != 4 {
		t.Fatalf("len = %d, want 4", len(samples))
	}
	for i, want := range []float64{3, 4, 5, 6} {
		if samples[i].V != want {
			t.Errorf("samples[%d].V = %g, want %g", i, samples[i].V, want)
		}
	}
	if got := s.Max(); got != 6 {
		t.Errorf("Max = %g, want 6", got)
	}
}

// TestActiveMeanIgnoresIdleSamples: the stat attribution leans on.
func TestActiveMeanIgnoresIdleSamples(t *testing.T) {
	s := newSeries("sig", "comp", "", "%", 8)
	for i, v := range []float64{0, 92, 92, 92, 0} {
		s.append(sim.Time(i), v)
	}
	if got := s.ActiveMean(); got != 92 {
		t.Errorf("ActiveMean = %g, want 92", got)
	}
	if got := s.Mean(); got >= 92 {
		t.Errorf("Mean = %g, should be diluted below 92", got)
	}
}

func synthSeries(tl *Timeline, name, comp, label, unit string, vals ...float64) *Series {
	s := newSeries(name, comp, label, unit, len(vals)+1)
	for i, v := range vals {
		s.append(sim.Time(i+1), v)
	}
	tl.add(s)
	return s
}

// TestAttributeVerdicts exercises all four rules on synthetic timelines.
func TestAttributeVerdicts(t *testing.T) {
	t.Run("link-bound", func(t *testing.T) {
		tl := &Timeline{}
		synthSeries(tl, "link_util", "link:peach2-0.E", "ab", "%", 0, 92, 93, 92, 0)
		synthSeries(tl, "link_util", "link:peach2-0.N", "ab", "%", 0, 20, 21, 20, 0)
		synthSeries(tl, "dma_busy", "peach2-1/dmac", "", "%", 0, 0, 0, 0, 0)
		rep := Attribute(nil, tl)
		if rep.Primary.Verdict != VerdictLinkBound {
			t.Fatalf("verdict = %v", rep.Primary.Verdict)
		}
		if !strings.Contains(rep.Primary.Resource, "link:peach2-0.E") {
			t.Errorf("resource = %q", rep.Primary.Resource)
		}
		if len(rep.Primary.Evidence) == 0 {
			t.Error("no evidence rows")
		}
		found := false
		for _, n := range rep.Notes {
			if strings.Contains(n, "peach2-1/dmac idles") {
				found = true
			}
		}
		if !found {
			t.Errorf("missing downstream-idle note: %v", rep.Notes)
		}
	})
	t.Run("engine-bound", func(t *testing.T) {
		tl := &Timeline{}
		synthSeries(tl, "link_util", "link:peach2-0.E", "ab", "%", 30, 35, 32)
		synthSeries(tl, "dma_busy", "peach2-0/dmac", "", "%", 95, 97, 96)
		rep := Attribute(nil, tl)
		if rep.Primary.Verdict != VerdictEngineBound {
			t.Fatalf("verdict = %v", rep.Primary.Verdict)
		}
		if rep.Primary.Resource != "peach2-0/dmac" {
			t.Errorf("resource = %q", rep.Primary.Resource)
		}
	})
	t.Run("read-latency-bound", func(t *testing.T) {
		tl := &Timeline{}
		synthSeries(tl, "link_util", "link:peach2-0.E", "ab", "%", 40, 42)
		synthSeries(tl, "dma_busy", "peach2-0/dmac", "", "%", 50, 52)
		synthSeries(tl, "rc_outstanding_reads", "node0.rc", "", "reads", 15, 16, 16)
		rep := Attribute(nil, tl)
		if rep.Primary.Verdict != VerdictReadLatencyBound {
			t.Fatalf("verdict = %v", rep.Primary.Verdict)
		}
		if rep.Primary.Resource != "node0.rc" {
			t.Errorf("resource = %q", rep.Primary.Resource)
		}
	})
	t.Run("underutilized", func(t *testing.T) {
		tl := &Timeline{}
		synthSeries(tl, "link_util", "link:peach2-0.E", "ab", "%", 1, 2, 1)
		rep := Attribute(nil, tl)
		if rep.Primary.Verdict != VerdictUnderutilized {
			t.Fatalf("verdict = %v", rep.Primary.Verdict)
		}
	})
}

// TestAttributeReportRenders smoke-tests the text renderer.
func TestAttributeReportRenders(t *testing.T) {
	tl := &Timeline{}
	synthSeries(tl, "link_util", "link:peach2-0.E", "ab", "%", 95, 95)
	var sb strings.Builder
	Attribute(nil, tl).WriteReport(&sb)
	out := sb.String()
	for _, want := range []string{"verdict: link-bound", "link:peach2-0.E", "active-mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestTelemetryNilSafety: every entry point must be a no-op on nil.
func TestTelemetryNilSafety(t *testing.T) {
	var s *Sampler
	var tl *Timeline
	var sr *Series
	eng := sim.NewEngine()
	s.Start(eng, units.Microsecond)
	if s.Register("a", "b", "", "u", func(sim.Time, units.Duration) float64 { return 0 }) != nil {
		t.Error("nil sampler Register returned a series")
	}
	if s.Timeline() != nil {
		t.Error("nil sampler accessors not zero")
	}
	if tl.Series() != nil || tl.Select("x") != nil || tl.Find("x", "y", "") != nil {
		t.Error("nil timeline accessors not empty")
	}
	sr.append(1, 1)
	if len(sr.Samples()) != 0 || sr.Max() != 0 || sr.Mean() != 0 || sr.ActiveMean() != 0 || sr.ID() != "" {
		t.Error("nil series accessors not zero")
	}
	if _, ok := lastSample(sr); ok {
		t.Error("nil series reported a last sample")
	}
	if Attribute(nil, nil).Primary.Verdict != VerdictUnderutilized {
		t.Error("nil-timeline attribution should be underutilized")
	}
}

// TestDisabledSamplingZeroAllocs locks the acceptance bar: the disabled
// telemetry path allocates nothing.
func TestDisabledSamplingZeroAllocs(t *testing.T) {
	var s *Sampler
	var sr *Series
	probe := func(sim.Time, units.Duration) float64 { return 1 }
	if n := testing.AllocsPerRun(200, func() {
		s.Register("sig", "comp", "", "u", probe)
		sr.append(1, 1)
		_ = sr.Samples()
	}); n != 0 {
		t.Errorf("disabled path allocates %.1f per run, want 0", n)
	}
}
