package obsv

import (
	"reflect"
	"testing"

	"tca/internal/sim"
	"tca/internal/units"
)

// eagerRing is the reference retention ring: storage for every sample is
// allocated up front, appends fill it and then overwrite the oldest slot.
type eagerRing struct {
	buf  []Sample
	n    int // samples retained
	next int // slot the next append writes
}

func newEagerRing(capacity int) *eagerRing { return &eagerRing{buf: make([]Sample, capacity)} }

func (r *eagerRing) append(sm Sample) {
	r.buf[r.next] = sm
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// samples returns the retained samples oldest-first.
func (r *eagerRing) samples() []Sample {
	out := make([]Sample, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)])
	}
	return out
}

// TestSeriesMatchesEagerRing appends the same stream to a lazily grown
// Series and to the eager reference ring, and compares every query at
// the append counts where growth and wrap-around change state.
func TestSeriesMatchesEagerRing(t *testing.T) {
	for _, capacity := range []int{1, 8, DefaultSeriesCap} {
		for _, n := range []int{0, 1, capacity - 1, capacity, capacity + 1, 3*capacity + 7} {
			s := NewSeries("sig", "comp", "", "u", capacity)
			ref := newEagerRing(capacity)
			for i := 0; i < n; i++ {
				// Every third value is idle so ActiveMean and Mean differ.
				sm := Sample{At: sim.Time(10 * i), V: float64(i%3) * float64(i+1)}
				s.Append(sm.At, sm.V)
				ref.append(sm)
			}
			want := ref.samples()
			if got := s.Samples(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d, %d appends: Samples = %v, want %v", capacity, n, got, want)
			}
			if s.Len() != len(want) {
				t.Fatalf("cap %d, %d appends: Len = %d, want %d", capacity, n, s.Len(), len(want))
			}
			last, ok := s.Last()
			if ok != (len(want) > 0) || (ok && last != want[len(want)-1]) {
				t.Fatalf("cap %d, %d appends: Last = %v, %v", capacity, n, last, ok)
			}
			var max, sum, activeSum float64
			active := 0
			for _, sm := range want {
				if sm.V > max {
					max = sm.V
				}
				sum += sm.V
				if sm.V != 0 {
					activeSum += sm.V
					active++
				}
			}
			var mean, activeMean float64
			if len(want) > 0 {
				mean = sum / float64(len(want))
			}
			if active > 0 {
				activeMean = activeSum / float64(active)
			}
			if s.Max() != max || s.Mean() != mean || s.ActiveMean() != activeMean {
				t.Fatalf("cap %d, %d appends: Max/Mean/ActiveMean = %g/%g/%g, want %g/%g/%g",
					capacity, n, s.Max(), s.Mean(), s.ActiveMean(), max, mean, activeMean)
			}
		}
	}
}

// TestRegisteredSeriesHoldsNoStorage: registering a probe costs no sample
// memory, and the first sample allocates room for a few samples, not for
// the whole retention bound.
func TestRegisteredSeriesHoldsNoStorage(t *testing.T) {
	s := NewSampler(0).Register("link_util", "link:a", "ab", "%", func(sim.Time, units.Duration) float64 { return 0 })
	if s.samples != nil || cap(s.samples) != 0 {
		t.Fatalf("fresh series holds storage for %d samples", cap(s.samples))
	}
	if s.capacity != DefaultSeriesCap {
		t.Fatalf("retention bound = %d, want DefaultSeriesCap", s.capacity)
	}
	s.Append(1, 1)
	if c := cap(s.samples); c == 0 || c >= DefaultSeriesCap {
		t.Fatalf("after one sample the series holds storage for %d samples", c)
	}
}
