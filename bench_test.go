// Benchmarks regenerating every table and figure of the paper's evaluation
// (§IV). Each benchmark runs the corresponding simulated experiment b.N
// times and reports the *simulated* metric (sim-GB/s, sim-us) alongside Go's
// wall-clock numbers; the simulated metrics are the ones to compare against
// the paper, and they are deterministic across runs.
//
//	go test -bench=. -benchmem
package tca

import (
	"testing"

	"tca/internal/bench"
	"tca/internal/core"
	"tca/internal/pcie"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// benchParams is the shared hardware configuration (the paper's Table II).
var benchParams = tcanet.DefaultParams

// reportBW runs a chained-DMA measurement b.N times and reports the
// simulated bandwidth.
func reportBW(b *testing.B, dir bench.Dir, target bench.Target, remote bool, size units.ByteSize, count int) {
	b.Helper()
	var bw units.Bandwidth
	for i := 0; i < b.N; i++ {
		bw = bench.MeasureChain(benchParams, dir, target, remote, size, count)
	}
	b.ReportMetric(bw.GBps(), "sim-GB/s")
}

// BenchmarkTableI_Inventory regenerates Table I (static inventory).
func BenchmarkTableI_Inventory(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(bench.TableI().Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTableII_Inventory regenerates Table II.
func BenchmarkTableII_Inventory(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(bench.TableII().Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTheoreticalPeak recomputes the §IV-A formula.
func BenchmarkTheoreticalPeak(b *testing.B) {
	var eff units.Bandwidth
	for i := 0; i < b.N; i++ {
		eff = pcie.Gen2x8.EffectiveBandwidth(pcie.DefaultMaxPayload)
	}
	b.ReportMetric(eff.GBps(), "sim-GB/s")
}

// BenchmarkFig7 sweeps the 255-burst local DMA matrix of Fig. 7.
func BenchmarkFig7(b *testing.B) {
	for _, size := range []units.ByteSize{256, 1024, 4096} {
		for _, tg := range []bench.Target{bench.TargetCPU, bench.TargetGPU} {
			for _, dir := range []bench.Dir{bench.DirWrite, bench.DirRead} {
				name := tg.String() + "-" + dir.String() + "-" + size.String()
				b.Run(name, func(b *testing.B) {
					reportBW(b, dir, tg, false, size, 255)
				})
			}
		}
	}
}

// BenchmarkFig8 sweeps the single-descriptor curve of Fig. 8.
func BenchmarkFig8(b *testing.B) {
	for _, size := range []units.ByteSize{4096, 64 * units.KiB, units.MiB} {
		size := size
		b.Run("CPU-write-"+size.String(), func(b *testing.B) {
			reportBW(b, bench.DirWrite, bench.TargetCPU, false, size, 1)
		})
	}
}

// BenchmarkFig9 sweeps the burst-count curve of Fig. 9 at 4 KiB.
func BenchmarkFig9(b *testing.B) {
	for _, count := range []int{1, 4, 16, 64, 255} {
		count := count
		b.Run("CPU-write-4KiB-x"+itoa(count), func(b *testing.B) {
			reportBW(b, bench.DirWrite, bench.TargetCPU, false, 4096, count)
		})
	}
}

// BenchmarkLatencyPIO regenerates the §IV-B1 loopback measurement (782 ns
// in the paper).
func BenchmarkLatencyPIO(b *testing.B) {
	var lat units.Duration
	for i := 0; i < b.N; i++ {
		lat = bench.MeasureLoopbackPIO(benchParams)
	}
	b.ReportMetric(lat.Microseconds(), "sim-us")
}

// BenchmarkFig12 sweeps the remote-write matrix of Fig. 12.
func BenchmarkFig12(b *testing.B) {
	for _, size := range []units.ByteSize{64, 512, 4096} {
		for _, tg := range []bench.Target{bench.TargetCPU, bench.TargetGPU} {
			name := tg.String() + "-remote-write-" + size.String()
			tg := tg
			size := size
			b.Run(name, func(b *testing.B) {
				reportBW(b, bench.DirWrite, tg, true, size, 255)
			})
		}
	}
}

// BenchmarkBaselineIB regenerates the motivating comparison: conventional
// 3-copy GPU-GPU transfers versus TCA.
func BenchmarkBaselineIB(b *testing.B) {
	for _, size := range []units.ByteSize{8, 4096, units.MiB} {
		size := size
		b.Run("conventional-"+size.String(), func(b *testing.B) {
			var lat units.Duration
			for i := 0; i < b.N; i++ {
				lat = bench.MeasureConventionalGPU(benchParams, size)
			}
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
		b.Run("tca-pipelined-"+size.String(), func(b *testing.B) {
			var lat units.Duration
			for i := 0; i < b.N; i++ {
				lat = bench.MeasureTCAGPU(benchParams, core.Pipelined, size)
			}
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
	}
}

// BenchmarkAblationPipelinedDMAC compares the paper's two DMAC generations
// on a host-sourced remote put.
func BenchmarkAblationPipelinedDMAC(b *testing.B) {
	for _, mode := range []core.DMAMode{core.TwoPhase, core.Pipelined} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var lat units.Duration
			for i := 0; i < b.N; i++ {
				lat = bench.MeasureTCAGPU(benchParams, mode, 256*units.KiB)
			}
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
	}
}

// BenchmarkAblationNTB compares the per-hop cost of PEACH2 routing and NTB
// translation.
func BenchmarkAblationNTB(b *testing.B) {
	var tab *bench.Table
	for i := 0; i < b.N; i++ {
		tab = bench.AblationNTB(benchParams)
	}
	p2, _ := tab.Value("PEACH2 (compare-only routing)", "latency")
	nt, _ := tab.Value("NTB (table translation)", "latency")
	b.ReportMetric(p2, "sim-peach2-us")
	b.ReportMetric(nt, "sim-ntb-us")
}

// BenchmarkAblationPayload measures the MaxPayload sensitivity of the
// chained-write peak.
func BenchmarkAblationPayload(b *testing.B) {
	for _, mp := range []units.ByteSize{128, 256, 512} {
		mp := mp
		b.Run(mp.String(), func(b *testing.B) {
			p := benchParams
			p.MaxPayload = mp
			var bw units.Bandwidth
			for i := 0; i < b.N; i++ {
				bw = bench.MeasureChain(p, bench.DirWrite, bench.TargetCPU, false, 4096, 255)
			}
			b.ReportMetric(bw.GBps(), "sim-GB/s")
		})
	}
}

// BenchmarkAblationImmediate measures the activation saving of a register-
// written descriptor.
func BenchmarkAblationImmediate(b *testing.B) {
	var tab *bench.Table
	for i := 0; i < b.N; i++ {
		tab = bench.AblationImmediate(benchParams)
	}
	saved, _ := tab.Value("512B", "saved")
	b.ReportMetric(saved, "sim-saved-us")
}

// BenchmarkAblationRouting measures worst-case PIO latency under shortest-
// arc vs fixed-east routing on an 8-node ring.
func BenchmarkAblationRouting(b *testing.B) {
	var tab *bench.Table
	for i := 0; i < b.N; i++ {
		tab = bench.AblationRouting(benchParams)
	}
	sa, _ := tab.Value("node 7", "shortest-arc")
	fe, _ := tab.Value("node 7", "fixed-east")
	b.ReportMetric(sa, "sim-shortest-us")
	b.ReportMetric(fe, "sim-east-us")
}

// BenchmarkEngineThroughput measures the simulator itself: how many
// simulated TLP deliveries per wall second the event engine sustains.
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.MeasureChain(benchParams, bench.DirWrite, bench.TargetCPU, false, 4096, 255)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
