package obsv_test

import (
	"testing"

	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// BenchmarkInstrumentRing16 measures instrumenting a 16-node ring with the
// observability set a checked scenario run uses (256 span events); the
// ring build itself is excluded. B/op is the memory an instrumented run
// pays before its first event.
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
