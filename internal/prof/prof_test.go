package prof

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tca/internal/obsv"
	"tca/internal/sim"
)

// workload schedules a deterministic cascade: each of n root events (one
// per component tag) reschedules itself depth times, so attribution sees
// both explicit tags and inheritance.
func workload(eng *sim.Engine, tags []sim.CompID, depth int) {
	for i, tag := range tags {
		tag := tag
		var step func()
		left := depth
		step = func() {
			if left--; left > 0 {
				eng.After(1, step) // inherits tag
			}
		}
		eng.AtComp(tag, sim.Time(i+1), step)
	}
}

func TestNilProfilerIsDisabled(t *testing.T) {
	var p *Profiler
	if id := p.Component("x"); id != 0 {
		t.Fatalf("nil Component = %d, want 0", id)
	}
	p.Attach(sim.NewEngine())
	p.Detach()
	if p.Components() != nil {
		t.Fatal("nil profiler reported data")
	}
	if s := p.RecordHostSeries(&obsv.Timeline{}, 16); s != nil {
		t.Fatal("nil profiler registered a host series")
	}
}

func TestComponentAttributionCounts(t *testing.T) {
	p := New(Options{SampleEvery: 1})
	eng := sim.NewEngine()
	a := p.Component("link:a")
	b := p.Component("peach2-0/dmac")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("component ids: a=%d b=%d", a, b)
	}
	if again := p.Component("link:a"); again != a {
		t.Fatalf("re-registering returned %d, want %d", again, a)
	}
	p.Attach(eng)
	workload(eng, []sim.CompID{a, b, b}, 5)
	eng.Run()
	p.Detach()

	var got uint64
	for _, c := range p.comps {
		got += c.events
	}
	if got != 15 {
		t.Fatalf("events = %d, want 15", got)
	}
	comps := p.Components()
	byName := map[string]ComponentStats{}
	for _, c := range comps {
		byName[c.Name] = c
	}
	if byName["link:a"].Events != 5 {
		t.Fatalf("link:a events = %d, want 5 (inheritance should carry the tag)", byName["link:a"].Events)
	}
	if byName["peach2-0/dmac"].Events != 10 {
		t.Fatalf("dmac events = %d, want 10", byName["peach2-0/dmac"].Events)
	}
	// SampleEvery=1 times every event.
	for _, c := range comps {
		if c.Sampled != c.Events {
			t.Fatalf("%s sampled %d of %d events with SampleEvery=1", c.Name, c.Sampled, c.Events)
		}
		if c.EstNS < 0 {
			t.Fatalf("%s negative host time", c.Name)
		}
	}
}

func TestSamplingKeepsCountsExact(t *testing.T) {
	p := New(Options{SampleEvery: 4})
	eng := sim.NewEngine()
	a := p.Component("a")
	p.Attach(eng)
	workload(eng, []sim.CompID{a}, 41)
	eng.Run()
	comps := p.Components()
	if len(comps) != 1 || comps[0].Events != 41 {
		t.Fatalf("events = %+v, want exactly 41 for a", comps)
	}
	// The per-component stride times events 1, 5, ..., 41 → 11 samples.
	if comps[0].Sampled != 11 {
		t.Fatalf("sampled = %d, want 11", comps[0].Sampled)
	}
}

func TestAttachingProfilerDoesNotChangeSimResults(t *testing.T) {
	run := func(p *Profiler) (final sim.Time, executed uint64) {
		eng := sim.NewEngine()
		var tags []sim.CompID
		for i := 0; i < 4; i++ {
			tags = append(tags, p.Component(strings.Repeat("c", i+1)))
		}
		p.Attach(eng)
		workload(eng, tags, 17)
		final, _ = eng.Run()
		return final, eng.Executed()
	}
	f0, e0 := run(nil)
	f1, e1 := run(New(Options{SampleEvery: 3, LabelComponents: true}))
	if f0 != f1 || e0 != e1 {
		t.Fatalf("profiled run diverged: (%v, %d) vs (%v, %d)", f0, e0, f1, e1)
	}
}

func TestMeasureCapturesRun(t *testing.T) {
	eng := sim.NewEngine()
	var p *Profiler // baseline configuration: no attribution overhead
	st := p.Measure("unit-test", eng, func() {
		workload(eng, []sim.CompID{0, 0}, 50)
		eng.Run()
	})
	if st.Events != 100 {
		t.Fatalf("Events = %d, want 100", st.Events)
	}
	if st.WallNS <= 0 {
		t.Fatalf("WallNS = %d, want > 0", st.WallNS)
	}
	if st.EventsPerSec <= 0 {
		t.Fatalf("EventsPerSec = %g, want > 0", st.EventsPerSec)
	}
	if st.QueueHighWater < 1 {
		t.Fatalf("QueueHighWater = %d, want >= 1", st.QueueHighWater)
	}
	if !strings.Contains(st.Headline(), "events/s") {
		t.Fatalf("Headline missing events/s: %q", st.Headline())
	}
}

func TestHostSeriesFeedsTimeline(t *testing.T) {
	p := New(Options{SampleEvery: 1})
	eng := sim.NewEngine()
	tl := &obsv.Timeline{}
	s := p.RecordHostSeries(tl, 64)
	if s == nil {
		t.Fatal("RecordHostSeries returned nil")
	}
	p.Attach(eng)
	workload(eng, []sim.CompID{p.Component("a")}, 20)
	eng.Run()
	if len(s.Samples()) == 0 {
		t.Fatal("host series stayed empty")
	}
	got := tl.Find("host_time", "prof", "")
	if got != s {
		t.Fatal("timeline does not carry the host series")
	}
	// Cumulative host time never decreases.
	prev := -1.0
	for _, sm := range s.Samples() {
		if sm.V < prev {
			t.Fatalf("host time went backwards: %v", s.Samples())
		}
		prev = sm.V
	}
}

func TestWriteTableRanksByHostTime(t *testing.T) {
	p := New(Options{SampleEvery: 1})
	eng := sim.NewEngine()
	hot := p.Component("hot")
	cold := p.Component("cold")
	p.Attach(eng)
	spin := make([]byte, 64)
	eng.AtComp(hot, 1, func() {
		for i := 0; i < 50000; i++ { // measurable host work
			spin[i%len(spin)]++
		}
	})
	eng.AtComp(cold, 2, func() {})
	eng.Run()
	var buf bytes.Buffer
	p.WriteTable(&buf, 10)
	out := buf.String()
	if !strings.Contains(out, "hot") || !strings.Contains(out, "cold") {
		t.Fatalf("table missing components:\n%s", out)
	}
	if strings.Index(out, "hot") > strings.Index(out, "cold") {
		t.Fatalf("hot component not ranked first:\n%s", out)
	}
}

func TestHostNanosMonotonic(t *testing.T) {
	a := HostNanos()
	b := HostNanos()
	if b < a {
		t.Fatalf("HostNanos went backwards: %d then %d", a, b)
	}
}

func TestCPUAndHeapProfileFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	workload(eng, []sim.CompID{0}, 2000)
	eng.Run()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}
	heap := filepath.Join(dir, "heap.pprof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
}

func TestForeignTagFallsBackToUntagged(t *testing.T) {
	// Tags minted by another profiler (or stale ones) must not crash; they
	// attribute to the untagged bucket.
	p := New(Options{SampleEvery: 1})
	eng := sim.NewEngine()
	p.Attach(eng)
	eng.AtComp(sim.CompID(999), 1, func() {})
	eng.Run()
	comps := p.Components()
	if len(comps) != 1 || comps[0].Name != "(untagged)" || comps[0].Events != 1 {
		t.Fatalf("foreign tag attribution = %+v", comps)
	}
}
