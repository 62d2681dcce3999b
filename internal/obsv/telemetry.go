package obsv

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"

	"tca/internal/sim"
	"tca/internal/units"
)

// DefaultSeriesCap bounds each time series; at the default 1 µs sampling
// interval that retains the most recent ~4 ms of fabric history.
const DefaultSeriesCap = 4096

// Probe reads one instantaneous or per-interval signal. now is the tick's
// sim time; elapsed is the time since the previous tick (since Start for
// the first), so rate probes can turn cumulative counters into
// per-interval values. Probes run inside the engine's event loop and must
// only read component state — never reserve, schedule, or mutate — so
// sampling cannot perturb calibrated timings.
type Probe func(now sim.Time, elapsed units.Duration) float64

type probeEntry struct {
	series *Series
	fn     Probe
}

// Sampler walks registered probes every configurable sim-interval and
// appends each reading to its bounded series. Components register probes
// during Instrument; Start schedules the tick train on the engine. The
// nil sampler is a valid disabled sampler: Register and Start on it are
// allocation-free no-ops, so the uninstrumented path stays zero-cost.
//
// The tick reschedules itself only while other events remain pending, so
// a running sampler never keeps Engine.Run alive on its own: sampling
// stops deterministically when the workload drains and may be restarted
// for a later phase.
type Sampler struct {
	mu        sync.Mutex
	seriesCap int
	tl        *Timeline
	probes    []probeEntry
	running   bool
	interval  units.Duration
	lastTick  sim.Time
	ticks     uint64
	// comp tags the tick train's events for engine self-profiling (see
	// internal/prof); 0 leaves them in the untagged bucket. Set by the
	// profiling harness — obsv cannot import prof without a cycle.
	comp sim.CompID
}

// NewSampler creates an enabled sampler whose series retain seriesCap
// samples each (<= 0 means DefaultSeriesCap).
func NewSampler(seriesCap int) *Sampler {
	if seriesCap <= 0 {
		seriesCap = DefaultSeriesCap
	}
	return &Sampler{seriesCap: seriesCap, tl: &Timeline{}}
}

// SetComp tags the sampler's tick events with a profiler component ID so
// sampling overhead attributes to the sampler instead of the untagged
// bucket. Safe on a nil sampler.
func (s *Sampler) SetComp(c sim.CompID) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.comp = c
	s.mu.Unlock()
}

// Timeline returns the sampler's series collection (nil when disabled).
func (s *Sampler) Timeline() *Timeline {
	if s == nil {
		return nil
	}
	return s.tl
}

// Register adds a probe and creates its series. No-op when disabled.
func (s *Sampler) Register(name, component, label, unit string, fn Probe) *Series {
	if s == nil {
		return nil
	}
	if fn == nil {
		panic("obsv: Register with nil probe")
	}
	series := newSeries(name, component, label, unit, s.seriesCap)
	s.mu.Lock()
	s.probes = append(s.probes, probeEntry{series: series, fn: fn})
	s.mu.Unlock()
	s.tl.add(series)
	return series
}

// Start schedules the sampling tick train on eng, one tick per interval
// of simulated time. No-op when disabled; panics on a non-positive
// interval or when already running. Sampling stops by itself once the
// engine's queue drains (see the type comment).
func (s *Sampler) Start(eng *sim.Engine, interval units.Duration) {
	if s == nil {
		return
	}
	if interval <= 0 {
		panic(fmt.Sprintf("obsv: Sampler.Start with interval %v", interval))
	}
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		panic("obsv: Sampler.Start while already running")
	}
	s.running = true
	s.interval = interval
	s.lastTick = eng.Now()
	comp := s.comp
	s.mu.Unlock()
	eng.AfterComp(comp, interval, func() { s.tick(eng) })
}

func (s *Sampler) tick(eng *sim.Engine) {
	s.mu.Lock()
	now := eng.Now()
	elapsed := now.Sub(s.lastTick)
	s.lastTick = now
	s.ticks++
	probes := s.probes
	interval := s.interval
	comp := s.comp
	s.mu.Unlock()

	for _, p := range probes {
		p.series.append(now, p.fn(now, elapsed))
	}

	// The tick's own event has already popped: a non-empty queue here
	// means workload (or a later phase of it) is still in flight. An
	// empty queue means the run is draining — stop, so Engine.Run can
	// return and a later phase can restart sampling.
	if eng.Pending() > 0 {
		eng.AfterComp(comp, interval, func() { s.tick(eng) })
		return
	}
	s.mu.Lock()
	s.running = false
	s.mu.Unlock()
}

// Verdict classifies the fabric's bottleneck.
type Verdict string

// Attribution verdicts.
const (
	// VerdictLinkBound: a link direction is saturated; everything behind
	// it is pacing to the wire.
	VerdictLinkBound Verdict = "link-bound"
	// VerdictEngineBound: a DMAC's issue pipeline dominates while its
	// links have headroom.
	VerdictEngineBound Verdict = "engine-bound"
	// VerdictReadLatencyBound: outstanding reads sit at the tag ceiling;
	// progress waits on completions, not on wire or engine.
	VerdictReadLatencyBound Verdict = "read-latency-bound"
	// VerdictUnderutilized: no resource is near saturation; the run is
	// latency- or dependency-dominated (e.g. ping-pong).
	VerdictUnderutilized Verdict = "underutilized"
)

// EvidenceRow is one measured fact supporting a finding.
type EvidenceRow struct {
	Series string  `json:"series"`
	Stat   string  `json:"stat"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

// Finding names one attributed resource with its justification.
type Finding struct {
	Verdict  Verdict       `json:"verdict"`
	Resource string        `json:"resource"`
	Detail   string        `json:"detail"`
	Evidence []EvidenceRow `json:"evidence"`
}

// Report is the attribution outcome: the primary bottleneck plus
// secondary observations.
type Report struct {
	Primary Finding  `json:"primary"`
	Notes   []string `json:"notes,omitempty"`
}

// Attribution thresholds, matching the PEACH2 defaults.
const (
	// saturationPct is the utilization / busy-fraction level treated as
	// saturated.
	saturationPct float64 = 90
	// idlePct is the level below which a resource counts as idle.
	idlePct float64 = 10
	// readCeiling is the requester's outstanding-read tag budget (the
	// PEACH2 DMAC exposes 16 tags); sustained occupancy near it means
	// progress is read-latency-bound.
	readCeiling float64 = 16
)

// Attribute names the saturated resource of a sampled run: a ≥90%-utilized
// link direction wins (link-bound), else a dominant DMAC busy fraction
// (engine-bound), else outstanding reads pinned at the tag ceiling
// (read-latency-bound), else the run is underutilized. The snapshot
// supplies cumulative context (credit stalls); the timeline supplies the
// per-interval evidence rows.
func Attribute(snap *Snapshot, tl *Timeline) *Report {
	r := &Report{}
	linkTop := hottest(tl.Select("link_util"))
	dmaTop := hottest(tl.Select("dma_busy"))
	readTop := hottestMax(tl.Select("rc_outstanding_reads"))

	switch {
	case linkTop != nil && linkTop.ActiveMean() >= saturationPct:
		r.Primary = Finding{
			Verdict:  VerdictLinkBound,
			Resource: linkTop.Component + "[" + linkTop.Label + "]",
			Detail: fmt.Sprintf("%s runs at %.1f%% of raw wire bandwidth while active — the fabric paces to this link",
				linkTop.ID(), linkTop.ActiveMean()),
			Evidence: seriesEvidence(linkTop),
		}
		if q := tl.Find("link_queued", linkTop.Component, linkTop.Label); q != nil {
			r.Primary.Evidence = append(r.Primary.Evidence,
				EvidenceRow{Series: q.ID(), Stat: "peak", Value: q.Max(), Unit: q.Unit})
		}
		for _, d := range tl.Select("dma_busy") {
			am := d.ActiveMean()
			if d.Max() == 0 || am < idlePct {
				r.Notes = append(r.Notes, fmt.Sprintf("downstream %s idles (%.1f%% busy) while the link saturates", d.Component, am))
				r.Primary.Evidence = append(r.Primary.Evidence,
					EvidenceRow{Series: d.ID(), Stat: "active-mean", Value: am, Unit: d.Unit})
			}
		}
		if dmaTop != nil && dmaTop.ActiveMean() >= saturationPct {
			r.Notes = append(r.Notes, fmt.Sprintf("%s is %.1f%% busy but wire-paced: its issue slots stretch to the serializer, so the link is the binding constraint",
				dmaTop.Component, dmaTop.ActiveMean()))
		}
	case dmaTop != nil && dmaTop.ActiveMean() >= saturationPct:
		r.Primary = Finding{
			Verdict:  VerdictEngineBound,
			Resource: dmaTop.Component,
			Detail: fmt.Sprintf("%s is busy %.1f%% of its active intervals while no link exceeds %.1f%% — the issue pipeline dominates",
				dmaTop.ID(), dmaTop.ActiveMean(), seriesActiveMean(linkTop)),
			Evidence: seriesEvidence(dmaTop),
		}
		if linkTop != nil {
			r.Primary.Evidence = append(r.Primary.Evidence,
				EvidenceRow{Series: linkTop.ID(), Stat: "active-mean", Value: linkTop.ActiveMean(), Unit: linkTop.Unit})
		}
	case readTop != nil && readTop.Max() >= 0.9*readCeiling:
		r.Primary = Finding{
			Verdict:  VerdictReadLatencyBound,
			Resource: readTop.Component,
			Detail: fmt.Sprintf("%s holds up to %.0f outstanding reads against a ceiling of %.0f tags — completion latency gates progress",
				readTop.ID(), readTop.Max(), readCeiling),
			Evidence: append(seriesEvidence(readTop),
				EvidenceRow{Series: readTop.ID(), Stat: "ceiling", Value: readCeiling, Unit: readTop.Unit}),
		}
	default:
		r.Primary = Finding{
			Verdict:  VerdictUnderutilized,
			Resource: "none",
			Detail:   "no sampled resource approaches saturation — end-to-end latency, not throughput, bounds this run",
		}
		if linkTop != nil {
			r.Primary.Evidence = append(r.Primary.Evidence,
				EvidenceRow{Series: linkTop.ID(), Stat: "active-mean", Value: linkTop.ActiveMean(), Unit: linkTop.Unit})
		}
		if dmaTop != nil {
			r.Primary.Evidence = append(r.Primary.Evidence,
				EvidenceRow{Series: dmaTop.ID(), Stat: "active-mean", Value: dmaTop.ActiveMean(), Unit: dmaTop.Unit})
		}
	}
	if snap != nil {
		for _, c := range snap.Counters {
			if c.Name == "link_credit_stalls" && c.Value > 0 {
				r.Notes = append(r.Notes, fmt.Sprintf("%s %s stalled %d sends on receiver credits", c.Component, labelSuffix(c.Labels), c.Value))
			}
		}
	}
	return r
}

func labelSuffix(labels []Label) string {
	out := ""
	for _, l := range labels {
		out += "[" + l.Value + "]"
	}
	return out
}

// hottest picks the series with the highest ActiveMean.
func hottest(series []*Series) *Series {
	var best *Series
	bestV := 0.0
	for _, s := range series {
		if v := s.ActiveMean(); best == nil || v > bestV {
			best, bestV = s, v
		}
	}
	return best
}

// hottestMax picks the series with the highest Max.
func hottestMax(series []*Series) *Series {
	var best *Series
	bestV := 0.0
	for _, s := range series {
		if v := s.Max(); best == nil || v > bestV {
			best, bestV = s, v
		}
	}
	return best
}

func seriesActiveMean(s *Series) float64 {
	if s == nil {
		return 0
	}
	return s.ActiveMean()
}

func seriesEvidence(s *Series) []EvidenceRow {
	return []EvidenceRow{
		{Series: s.ID(), Stat: "active-mean", Value: s.ActiveMean(), Unit: s.Unit},
		{Series: s.ID(), Stat: "peak", Value: s.Max(), Unit: s.Unit},
		{Series: s.ID(), Stat: "mean", Value: s.Mean(), Unit: s.Unit},
	}
}

// WriteReport renders the attribution verdict and its evidence rows.
func (r *Report) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "verdict: %s — %s\n", r.Primary.Verdict, r.Primary.Resource)
	fmt.Fprintf(w, "  %s\n", r.Primary.Detail)
	if len(r.Primary.Evidence) > 0 {
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  series\tstat\tvalue")
		for _, e := range r.Primary.Evidence {
			fmt.Fprintf(tw, "  %s\t%s\t%.1f %s\n", e.Series, e.Stat, e.Value, e.Unit)
		}
		tw.Flush()
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
