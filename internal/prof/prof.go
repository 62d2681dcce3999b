// Package prof is the engine's self-profiling subsystem: where internal/obsv
// observes the *simulated* hardware in simulated time, prof observes the
// *simulator itself* in host time. It attributes host wall-clock and event
// counts to registered components through the engine's Executor hook,
// captures per-run allocation and GC cost via runtime.ReadMemStats, and feeds
// pprof so flamegraphs map back to sim structure.
//
// The design rules mirror obsv's:
//
//   - Zero cost when disabled. A nil *Profiler is valid everywhere;
//     components profile under it with no-op Component calls, and an engine
//     with no executor attached runs the exact pre-profiler hot path
//     (one nil check per event, zero allocations — pinned by tests).
//   - Observation only. Host-time readings never feed back into simulated
//     state; attaching or detaching a profiler cannot change simulation
//     results, which stay bit-identical (the determinism suite checks this).
//   - Cheap sampling. Timing every event costs two clock reads per handler;
//     SampleEvery=k times one event in k and extrapolates, keeping counts
//     exact while the clock overhead shrinks by k.
package prof

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"text/tabwriter"

	"tca/internal/obsv"
	"tca/internal/sim"
)

// DefaultSampleEvery times one event in every 8 — exact event counts,
// ~1/8th of the clock-read overhead, and still thousands of timing samples
// per second of host time on any real workload.
const DefaultSampleEvery = 8

// Options tunes a profiler.
type Options struct {
	// SampleEvery times one event in every SampleEvery (1 = time every
	// event; 0 = DefaultSampleEvery). Event *counts* are always exact.
	SampleEvery uint64
	// LabelComponents additionally sets pprof goroutine labels to the
	// executing component, so CPU flamegraphs split by sim structure.
	// Costs one label-set per executed event; off by default.
	LabelComponents bool
}

// comp is one registered component's accumulator. Untagged events land on
// index 0.
type comp struct {
	name string
	// ctx carries the component's pprof label set (LabelComponents mode).
	ctx context.Context
	// events counts every executed event attributed to the component.
	events uint64
	// sampled counts the events that were actually timed; sampledNS sums
	// their host-clock cost.
	sampled   uint64
	sampledNS int64
}

// Profiler attributes engine host time to components. It implements
// sim.Executor; Attach wires it into an engine. All methods are
// nil-receiver-safe no-ops so a disabled profiler threads through
// construction code for free.
//
// The profiler is intentionally lock-free: the engine is single-threaded,
// Component registration happens during model construction on the same
// goroutine, and reports are read after Run returns.
type Profiler struct {
	opts  Options
	eng   *sim.Engine
	comps []comp
	// seq counts executed events for the sampling stride.
	seq uint64
	// hostNS accumulates all sampled host time across components.
	hostNS int64
	// hostSeries, when set, receives (sim time, cumulative host µs)
	// samples on every timed event — the counter track Perfetto merges
	// next to the sim-time tracks.
	hostSeries *obsv.Series
}

// New creates an enabled profiler.
func New(opts Options) *Profiler {
	if opts.SampleEvery == 0 {
		opts.SampleEvery = DefaultSampleEvery
	}
	return &Profiler{opts: opts, comps: []comp{{name: "(untagged)", ctx: context.Background()}}}
}

// Component registers (or re-finds) a named component and returns its
// attribution tag. Returns 0 — the untagged component — when disabled, so
// models store the result unconditionally.
func (p *Profiler) Component(name string) sim.CompID {
	if p == nil {
		return 0
	}
	for id, c := range p.comps {
		if c.name == name {
			return sim.CompID(id)
		}
	}
	ctx := context.Background()
	if p.opts.LabelComponents {
		ctx = pprof.WithLabels(ctx, pprof.Labels("component", name))
	}
	p.comps = append(p.comps, comp{name: name, ctx: ctx})
	return sim.CompID(len(p.comps) - 1)
}

// Attach wires the profiler into the engine's execution path. No-op when
// disabled. Register components before attaching.
func (p *Profiler) Attach(eng *sim.Engine) {
	if p == nil {
		return
	}
	p.eng = eng
	eng.SetExecutor(p)
}

// Detach removes the profiler from its engine, restoring the bare hot path.
func (p *Profiler) Detach() {
	if p == nil || p.eng == nil {
		return
	}
	p.eng.SetExecutor(nil)
	p.eng = nil
}

// Reset clears all accumulated counts and timings, keeping registrations,
// so one profiler can measure several phases separately.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	for i := range p.comps {
		p.comps[i].events, p.comps[i].sampled, p.comps[i].sampledNS = 0, 0, 0
	}
	p.seq = 0
	p.hostNS = 0
}

// RecordHostSeries registers a "host_time" series on tl and streams the
// profiler's cumulative host time (µs) into it at every timed event,
// stamped with the engine's sim time. In the Perfetto export this becomes a
// counter track that rises steeply exactly where the simulator burns host
// CPU, aligned under the sim-time span tracks.
func (p *Profiler) RecordHostSeries(tl *obsv.Timeline, capacity int) *obsv.Series {
	if p == nil || tl == nil {
		return nil
	}
	s := obsv.NewSeries("host_time", "prof", "", "us", capacity)
	tl.Add(s)
	p.hostSeries = s
	return s
}

// ExecEvent implements sim.Executor: count the event, time a 1-in-k sample
// of them, and optionally tag the goroutine with the component's pprof
// labels. Called by the engine for every event while attached.
func (p *Profiler) ExecEvent(id sim.CompID, fn func()) {
	if int(id) >= len(p.comps) {
		id = 0 // tag from a foreign profiler: attribute as untagged
	}
	c := &p.comps[id]
	c.events++
	p.seq++
	if p.opts.LabelComponents {
		pprof.SetGoroutineLabels(c.ctx)
	}
	// The stride runs per component, not globally: deterministic workloads
	// interleave components periodically, and a global stride can alias
	// against that period and never time some of them.
	if c.events%p.opts.SampleEvery != 1%p.opts.SampleEvery {
		fn()
		return
	}
	t0 := HostNanos()
	fn()
	dt := HostNanos() - t0
	c.sampled++
	c.sampledNS += dt
	p.hostNS += dt
	if p.hostSeries != nil {
		p.hostSeries.Append(p.eng.Now(), float64(p.hostNS)/1e3)
	}
}

// Events reports the total executed events the profiler observed.
func (p *Profiler) Events() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for i := range p.comps {
		n += p.comps[i].events
	}
	return n
}

// HostNS reports the summed host time of all timed samples (not
// extrapolated).
func (p *Profiler) HostNS() int64 {
	if p == nil {
		return 0
	}
	return p.hostNS
}

// ComponentStats is one component's aggregated host-time attribution.
type ComponentStats struct {
	ID   sim.CompID `json:"-"`
	Name string     `json:"name"`
	// Events is the exact executed-event count attributed to the component.
	Events uint64 `json:"events"`
	// Sampled is how many of those were timed; SampledNS their summed cost.
	Sampled   uint64 `json:"sampled"`
	SampledNS int64  `json:"sampled_ns"`
	// EstNS extrapolates SampledNS over all the component's events — the
	// figure the top-components table ranks by.
	EstNS int64 `json:"est_ns"`
	// SharePct is EstNS as a percentage of the run's total estimate.
	SharePct float64 `json:"share_pct"`
}

// Components returns per-component attribution for every component that
// executed at least one event, sorted by descending estimated host time
// (ties by name, so output is deterministic).
func (p *Profiler) Components() []ComponentStats {
	if p == nil {
		return nil
	}
	var out []ComponentStats
	var total int64
	for id := range p.comps {
		c := &p.comps[id]
		if c.events == 0 {
			continue
		}
		est := c.sampledNS
		if c.sampled > 0 {
			est = int64(float64(c.sampledNS) / float64(c.sampled) * float64(c.events))
		}
		total += est
		out = append(out, ComponentStats{
			ID: sim.CompID(id), Name: c.name,
			Events: c.events, Sampled: c.sampled, SampledNS: c.sampledNS, EstNS: est,
		})
	}
	for i := range out {
		if total > 0 {
			out[i].SharePct = 100 * float64(out[i].EstNS) / float64(total)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EstNS != out[j].EstNS {
			return out[i].EstNS > out[j].EstNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteTable renders the top-n components by estimated host time (n <= 0
// means all).
func (p *Profiler) WriteTable(w io.Writer, n int) {
	comps := p.Components()
	if n > 0 && len(comps) > n {
		comps = comps[:n]
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "component\tevents\tsampled\thost-time(est)\tshare\t")
	for _, c := range comps {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%.1f%%\t\n",
			c.Name, c.Events, c.Sampled, fmtNS(c.EstNS), c.SharePct)
	}
	tw.Flush()
}

// fmtNS renders host nanoseconds human-readably.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// RunStats is one measured run's host-side cost capture.
type RunStats struct {
	Scenario string `json:"scenario"`
	// WallNS is host wall-clock for the run; Events the engine events it
	// executed; EventsPerSec the headline throughput figure.
	WallNS       int64   `json:"wall_ns"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Allocation and GC cost over the run, from runtime.ReadMemStats.
	AllocObjects       uint64  `json:"alloc_objects"`
	AllocBytes         uint64  `json:"alloc_bytes"`
	GCCycles           uint64  `json:"gc_cycles"`
	AllocsPerEvent     float64 `json:"allocs_per_event"`
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event"`
	// QueueHighWater is the deepest the engine's pending queue ran.
	QueueHighWater int `json:"queue_high_water"`
}

// Measure runs fn under pprof scenario labels and captures its host cost:
// wall time (blessed host clock), engine events executed, allocation and GC
// deltas from runtime.ReadMemStats, and the queue high-water mark. With a
// non-nil profiler it also attaches it for per-component attribution; with
// a nil one it measures the bare engine — the configuration the committed
// perf baseline uses, so the headline numbers carry no instrumentation
// overhead.
func (p *Profiler) Measure(scenario string, eng *sim.Engine, fn func()) RunStats {
	if p != nil {
		p.Attach(eng)
		defer p.Detach()
	}
	eng.ResetQueueHighWater()
	ev0 := eng.Executed()
	obj0, bytes0, gc0 := readAllocMetrics()
	t0 := HostNanos()
	Do(scenario, fn)
	wall := HostNanos() - t0
	obj1, bytes1, gc1 := readAllocMetrics()
	st := RunStats{
		Scenario:       scenario,
		WallNS:         wall,
		Events:         eng.Executed() - ev0,
		AllocObjects:   obj1 - obj0,
		AllocBytes:     bytes1 - bytes0,
		GCCycles:       gc1 - gc0,
		QueueHighWater: eng.QueueHighWater(),
	}
	if wall > 0 {
		st.EventsPerSec = float64(st.Events) / (float64(wall) / 1e9)
	}
	if st.Events > 0 {
		st.AllocsPerEvent = float64(st.AllocObjects) / float64(st.Events)
		st.AllocBytesPerEvent = float64(st.AllocBytes) / float64(st.Events)
	}
	return st
}

// Headline renders the run's one-line events/sec summary.
func (s RunStats) Headline() string {
	return fmt.Sprintf("%s: %.0f events/s (%d events in %s, %.1f allocs/event, %d GC cycles, queue high-water %d)",
		s.Scenario, s.EventsPerSec, s.Events, fmtNS(s.WallNS), s.AllocsPerEvent, s.GCCycles, s.QueueHighWater)
}

// readAllocMetrics reads the cumulative heap allocation and GC counters.
// ReadMemStats stops the world and flushes every P's allocation cache, so
// the counts are exact: runtime/metrics counts a small object only once its
// span leaves an mcache, which made a scenario's few small allocations
// appear or vanish depending on cache state.
func readAllocMetrics() (objects, bytes, gcCycles uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc, uint64(m.NumGC)
}
