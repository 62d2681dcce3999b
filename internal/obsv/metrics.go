package obsv

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tca/internal/sim"
	"tca/internal/units"
)

// Label is one key=value dimension of a metric. Labels are kept as an
// ordered slice (not a map) so exporter output is deterministic.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Counter is a monotonically increasing count. The nil counter is a valid
// disabled counter: Add and Inc on it are allocation-free no-ops.
type Counter struct {
	desc desc
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 when disabled).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level (queue depth, in-flight credits).
// The nil gauge is a valid disabled gauge.
type Gauge struct {
	desc desc
	v    atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value reads the level (0 when disabled).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBounds are the fixed histogram buckets used for hop and
// transaction latencies, spanning the sub-microsecond port hops up to the
// multi-millisecond reconfiguration events.
var DefaultLatencyBounds = []units.Duration{
	100 * units.Nanosecond,
	250 * units.Nanosecond,
	500 * units.Nanosecond,
	1 * units.Microsecond,
	2500 * units.Nanosecond,
	5 * units.Microsecond,
	10 * units.Microsecond,
	25 * units.Microsecond,
	50 * units.Microsecond,
	100 * units.Microsecond,
	250 * units.Microsecond,
	1 * units.Millisecond,
}

// Histogram is a fixed-bucket latency histogram. Bucket i counts
// observations <= Bounds[i]; one extra overflow bucket counts the rest.
// The nil histogram is a valid disabled histogram.
type Histogram struct {
	desc    desc
	bounds  []units.Duration
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // picoseconds
}

// Observe records one latency sample.
func (h *Histogram) Observe(d units.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count reports the number of observations (0 when disabled).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// desc identifies a metric: a name, the component that owns it, and extra
// label dimensions.
type desc struct {
	name      string
	component string
	labels    []Label
}

func (d desc) key() string {
	var sb strings.Builder
	sb.WriteString(d.name)
	sb.WriteByte('|')
	sb.WriteString(d.component)
	for _, l := range d.labels {
		sb.WriteByte('|')
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// Registry holds every registered metric. The nil registry is a valid
// disabled registry: registration on it returns nil metrics, which are
// themselves no-ops. Registration takes a lock; updates are lock-free
// atomics so a Snapshot may be taken while an engine runs elsewhere.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]any
}

// NewRegistry creates an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]any)}
}

// Counter registers (or re-fetches) a counter.
func (r *Registry) Counter(name, component string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	d := desc{name: name, component: component, labels: labels}
	key := d.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obsv: metric %q re-registered with a different type", key))
		}
		return c
	}
	c := &Counter{desc: d}
	r.byKey[key] = c
	return c
}

// Gauge registers (or re-fetches) a gauge.
func (r *Registry) Gauge(name, component string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	d := desc{name: name, component: component, labels: labels}
	key := d.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obsv: metric %q re-registered with a different type", key))
		}
		return g
	}
	g := &Gauge{desc: d}
	r.byKey[key] = g
	return g
}

// Histogram registers (or re-fetches) a latency histogram with the given
// bucket bounds (nil means DefaultLatencyBounds).
func (r *Registry) Histogram(name, component string, bounds []units.Duration, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	d := desc{name: name, component: component, labels: labels}
	key := d.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obsv: metric %q re-registered with a different type", key))
		}
		return h
	}
	h := &Histogram{desc: d, bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	r.byKey[key] = h
	return h
}

// CounterValue reads a registered counter's current value without
// registering it: false when no counter has that identity. It is one map
// lookup, for callers that need a few values without a full Snapshot.
func (r *Registry) CounterValue(name, component string, labels ...Label) (uint64, bool) {
	if r == nil {
		return 0, false
	}
	key := desc{name: name, component: component, labels: labels}.key()
	r.mu.Lock()
	c, ok := r.byKey[key].(*Counter)
	r.mu.Unlock()
	// Distinct identities can render the same key ("c|k=v" with no labels
	// vs "c" with k=v); only the exact identity counts.
	if !ok || !sameID(c.desc.name, c.desc.component, c.desc.labels, name, component, labels) {
		return 0, false
	}
	return c.Value(), true
}

// CounterVal is one counter's frozen value.
type CounterVal struct {
	Name      string  `json:"name"`
	Component string  `json:"component"`
	Labels    []Label `json:"labels,omitempty"`
	Value     uint64  `json:"value"`
}

// GaugeVal is one gauge's frozen value.
type GaugeVal struct {
	Name      string  `json:"name"`
	Component string  `json:"component"`
	Labels    []Label `json:"labels,omitempty"`
	Value     int64   `json:"value"`
}

// HistogramVal is one histogram's frozen state. Buckets[i] counts samples
// <= BoundsNS[i]; the final extra bucket is the overflow.
type HistogramVal struct {
	Name      string   `json:"name"`
	Component string   `json:"component"`
	Labels    []Label  `json:"labels,omitempty"`
	BoundsNS  []int64  `json:"bounds_ns"`
	Buckets   []uint64 `json:"buckets"`
	Count     uint64   `json:"count"`
	SumNS     float64  `json:"sum_ns"`
}

// Snapshot is the registry frozen at one sim time.
type Snapshot struct {
	AtPS       int64          `json:"at_ps"`
	Counters   []CounterVal   `json:"counters"`
	Gauges     []GaugeVal     `json:"gauges"`
	Histograms []HistogramVal `json:"histograms"`
}

// Snapshot freezes every metric's value at time now, each kind ordered by
// its rendered identity key. A nil registry snapshots to an empty
// Snapshot.
func (r *Registry) Snapshot(now sim.Time) *Snapshot {
	s := &Snapshot{AtPS: int64(now)}
	if r == nil {
		return s
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	metrics := make([]any, len(keys))
	for i, k := range keys {
		metrics[i] = r.byKey[k]
	}
	r.mu.Unlock()
	for _, m := range metrics {
		switch m := m.(type) {
		case *Counter:
			s.Counters = append(s.Counters, CounterVal{
				Name: m.desc.name, Component: m.desc.component, Labels: m.desc.labels,
				Value: m.v.Load(),
			})
		case *Gauge:
			s.Gauges = append(s.Gauges, GaugeVal{
				Name: m.desc.name, Component: m.desc.component, Labels: m.desc.labels,
				Value: m.v.Load(),
			})
		case *Histogram:
			hv := HistogramVal{
				Name: m.desc.name, Component: m.desc.component, Labels: m.desc.labels,
				Count: m.count.Load(),
				SumNS: float64(m.sum.Load()) / 1000,
			}
			for _, b := range m.bounds {
				hv.BoundsNS = append(hv.BoundsNS, int64(b)/1000)
			}
			for i := range m.buckets {
				hv.Buckets = append(hv.Buckets, m.buckets[i].Load())
			}
			s.Histograms = append(s.Histograms, hv)
		}
	}
	return s
}

// sameID reports whether a frozen metric has the wanted identity,
// comparing field by field so a lookup builds no strings.
func sameID(name, component string, labels []Label, wantName, wantComponent string, want []Label) bool {
	if name != wantName || component != wantComponent || len(labels) != len(want) {
		return false
	}
	for i := range labels {
		if labels[i] != want[i] {
			return false
		}
	}
	return true
}

// Counter looks a frozen counter value up by identity.
func (s *Snapshot) Counter(name, component string, labels ...Label) (uint64, bool) {
	for _, c := range s.Counters {
		if sameID(c.Name, c.Component, c.Labels, name, component, labels) {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge looks a frozen gauge value up by identity.
func (s *Snapshot) Gauge(name, component string, labels ...Label) (int64, bool) {
	for _, g := range s.Gauges {
		if sameID(g.Name, g.Component, g.Labels, name, component, labels) {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram looks a frozen histogram up by identity.
func (s *Snapshot) Histogram(name, component string, labels ...Label) (HistogramVal, bool) {
	for _, h := range s.Histograms {
		if sameID(h.Name, h.Component, h.Labels, name, component, labels) {
			return h, true
		}
	}
	return HistogramVal{}, false
}
