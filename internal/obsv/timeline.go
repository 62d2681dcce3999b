package obsv

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"

	"tca/internal/sim"
)

// Sample is one point of a time series: the signal's value at a sampler
// tick.
type Sample struct {
	At sim.Time `json:"at_ps"`
	V  float64  `json:"v"`
}

// Series is a bounded ring of time-ordered samples for one signal — a
// link direction's utilization, a DMAC's busy fraction, a port's bytes per
// interval. Storage grows on first sample up to the retention bound, so a
// registered series that is never sampled holds no sample memory; once the
// bound is reached the oldest sample is evicted on each append. The nil
// series is a valid disabled series: appends and queries on it are no-ops.
type Series struct {
	// Name is the signal kind ("link_util", "dma_busy", ...).
	Name string
	// Component owns the signal ("link:peach2-0.E", "peach2-0/dmac").
	Component string
	// Label distinguishes sub-signals of one component (a link direction
	// "ab"/"ba", a port "N"). Empty when the component has one signal.
	Label string
	// Unit names the value's unit ("%", "B", "tlps", "reads").
	Unit string

	mu sync.Mutex
	// capacity is the retention bound: samples grows by append until it
	// holds capacity entries, then wraps as a ring whose oldest entry is
	// samples[next] (next stays 0 until the ring wraps).
	capacity int
	samples  []Sample
	next     int
}

func newSeries(name, component, label, unit string, capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &Series{Name: name, Component: component, Label: label, Unit: unit, capacity: capacity}
}

// NewSeries creates a standalone bounded series, for signals that are fed
// directly rather than through a Sampler probe — e.g. the profiler's
// host-time track. capacity <= 0 means DefaultSeriesCap.
func NewSeries(name, component, label, unit string, capacity int) *Series {
	return newSeries(name, component, label, unit, capacity)
}

// Append adds one sample. Callers must append in nondecreasing time order
// (the order any single-threaded simulation produces naturally). No-op on
// the nil series.
func (s *Series) Append(at sim.Time, v float64) {
	if s == nil {
		return
	}
	s.append(at, v)
}

// ID renders the series identity: "name component[label]".
func (s *Series) ID() string {
	if s == nil {
		return ""
	}
	if s.Label == "" {
		return s.Name + " " + s.Component
	}
	return s.Name + " " + s.Component + "[" + s.Label + "]"
}

func (s *Series) append(at sim.Time, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) < s.capacity {
		s.samples = append(s.samples, Sample{At: at, V: v})
		return
	}
	s.samples[s.next] = Sample{At: at, V: v}
	s.next = (s.next + 1) % len(s.samples)
}

// Samples returns the retained samples oldest-first.
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.samples))
	out = append(out, s.samples[s.next:]...)
	return append(out, s.samples[:s.next]...)
}

// Max reports the largest sampled value (0 when empty).
func (s *Series) Max() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0.0
	for _, sm := range s.samples {
		if sm.V > max {
			max = sm.V
		}
	}
	return max
}

// Mean reports the arithmetic mean over all retained samples.
func (s *Series) Mean() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, sm := range s.samples {
		sum += sm.V
	}
	return sum / float64(len(s.samples))
}

// ActiveMean reports the mean over the samples with a nonzero value — the
// signal's level while its resource was doing anything at all. A steady
// 92%-utilized link whose run has idle ramp-up and drain intervals shows
// ~92% here where Mean would dilute it toward the threshold.
func (s *Series) ActiveMean() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, n := 0.0, 0
	for _, sm := range s.samples {
		if sm.V != 0 {
			sum += sm.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Timeline is the ordered collection of every registered series. The nil
// timeline is a valid disabled timeline.
type Timeline struct {
	mu     sync.Mutex
	series []*Series
}

func (t *Timeline) add(s *Series) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.series = append(t.series, s)
}

// Add registers an externally-created series (see NewSeries) so exporters
// and tables pick it up alongside the sampler's own. No-op on the nil
// timeline or with a nil series.
func (t *Timeline) Add(s *Series) {
	if t == nil || s == nil {
		return
	}
	t.add(s)
}

// Series returns every series in registration order.
func (t *Timeline) Series() []*Series {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Series(nil), t.series...)
}

// Select returns every series with the given name, in registration order.
func (t *Timeline) Select(name string) []*Series {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Series
	for _, s := range t.series {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Find returns the series with the exact identity, or nil.
func (t *Timeline) Find(name, component, label string) *Series {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.series {
		if s.Name == name && s.Component == component && s.Label == label {
			return s
		}
	}
	return nil
}

// WriteSeriesTable renders the chosen series as one aligned column each,
// one row per sampling tick (matched by timestamp), striding rows so at
// most maxRows print (0 means all). The final tick always prints.
func WriteSeriesTable(w io.Writer, series []*Series, maxRows int) {
	cols := make([][]Sample, 0, len(series))
	times := make(map[sim.Time]bool)
	for _, s := range series {
		samples := s.Samples()
		cols = append(cols, samples)
		for _, sm := range samples {
			times[sm.At] = true
		}
	}
	ordered := make([]sim.Time, 0, len(times))
	for at := range times {
		ordered = append(ordered, at)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	stride := 1
	if maxRows > 0 && len(ordered) > maxRows {
		stride = (len(ordered) + maxRows - 1) / maxRows
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "t(us)")
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s(%s)", s.ID(), s.Unit)
	}
	fmt.Fprintln(tw, "\t")
	for i, at := range ordered {
		if i%stride != 0 && i != len(ordered)-1 {
			continue
		}
		fmt.Fprintf(tw, "%.1f", float64(at)/1e6)
		for c := range series {
			if v, ok := sampleAt(cols[c], at); ok {
				fmt.Fprintf(tw, "\t%.1f", v)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw, "\t")
	}
	tw.Flush()
}

func sampleAt(samples []Sample, at sim.Time) (float64, bool) {
	i := sort.Search(len(samples), func(i int) bool { return samples[i].At >= at })
	if i < len(samples) && samples[i].At == at {
		return samples[i].V, true
	}
	return 0, false
}

// TopSeries orders series by descending Max (ties by ID) and returns at
// most n of them — the "most active signals" view tcatrace -view top renders.
func TopSeries(series []*Series, n int) []*Series {
	out := append([]*Series(nil), series...)
	sort.Slice(out, func(i, j int) bool {
		mi, mj := out[i].Max(), out[j].Max()
		if mi != mj {
			return mi > mj
		}
		return out[i].ID() < out[j].ID()
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
