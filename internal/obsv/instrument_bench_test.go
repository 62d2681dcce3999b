package obsv_test

import (
	"testing"

	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// BenchmarkInstrumentRing16 measures instrumenting a 16-node ring with a
// full observability set (registry, 256-event span recorder and
// telemetry sampler); the ring build itself is excluded. B/op is the
// memory an instrumented run pays before its first event.
func BenchmarkInstrumentRing16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sc, err := tcanet.BuildRing(sim.NewEngine(), 16, tcanet.DefaultParams)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sc.Instrument(obsv.NewSet(256))
	}
}

// TestInstrumentAllocCeiling gates the allocations of instrumenting a
// 16-node ring, the ring build excluded, with a full set and with the
// registry-only set a checked run uses. Registration builds one
// exactly-sized key per new metric, carves counters from shared chunks
// and takes static label slices, so the full set took 1,896 allocations
// when the ceilings were set (4,030 before) and the registry-only set
// 912. The counts are deterministic
// for a given Go release; each ceiling leaves 5% for runtime drift.
func TestInstrumentAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		set     func() *obsv.Set
		ceiling float64
	}{
		{"full set", func() *obsv.Set { return obsv.NewSet(256) }, 1990},
		{"registry only", func() *obsv.Set { return &obsv.Set{Reg: obsv.NewRegistry()} }, 957},
	} {
		const runs = 4
		rings := make([]*tcanet.SubCluster, runs+1) // AllocsPerRun warms up once
		for i := range rings {
			sc, err := tcanet.BuildRing(sim.NewEngine(), 16, tcanet.DefaultParams)
			if err != nil {
				t.Fatal(err)
			}
			rings[i] = sc
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			rings[next].Instrument(c.set())
			next++
		})
		if allocs > c.ceiling {
			t.Errorf("%s: instrumenting a 16-node ring allocates %.0f times, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
