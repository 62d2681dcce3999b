package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"tca/internal/tcanet"
)

// TestBenchBaselineRegression re-measures every headline figure and fails
// on >2% drift from the committed BENCH_PR2.json. Regenerate the file with
// `tcabench -bench-json BENCH_PR2.json` when a model change is deliberate.
func TestBenchBaselineRegression(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_PR2.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var want BenchBaseline
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("BENCH_PR2.json: %v", err)
	}
	if want.Schema != BenchBaselineSchema {
		t.Fatalf("baseline schema %q, this tree speaks %q", want.Schema, BenchBaselineSchema)
	}
	got := CollectBaseline(tcanet.DefaultParams)
	for _, d := range want.Compare(got, 0.02) {
		t.Error(d)
	}
}

// Compare checks every figure of got against the committed baseline within
// tolerance (a fraction, e.g. 0.02 for ±2%) and returns one error line per
// drifted figure.
func (b BenchBaseline) Compare(got BenchBaseline, tolerance float64) []string {
	var drifts []string
	check := func(name string, want, have float64) {
		if want == 0 {
			if have != 0 {
				drifts = append(drifts, fmt.Sprintf("%s: baseline 0, got %g", name, have))
			}
			return
		}
		if rel := (have - want) / want; rel > tolerance || rel < -tolerance {
			drifts = append(drifts, fmt.Sprintf("%s: baseline %g, got %g (%+.2f%%)", name, want, have, 100*rel))
		}
	}
	check("fig7_peak_write_gbps", b.PeakWriteGBps, got.PeakWriteGBps)
	check("fig7_gpu_read_gbps", b.GPUReadGBps, got.GPUReadGBps)
	check("fig8_single_dma_4k_gbps", b.SingleDMAGBps, got.SingleDMAGBps)
	check("fig9_burst4_4k_gbps", b.Burst4GBps, got.Burst4GBps)
	check("fig10_min_pingpong_us", b.MinPingPongUS, got.MinPingPongUS)
	check("fig10_per_hop_ns", b.PerHopNS, got.PerHopNS)
	check("tca_gpu_8b_us", b.TCAGPU8BUS, got.TCAGPU8BUS)
	check("conventional_gpu_8b_us", b.ConvGPU8BUS, got.ConvGPU8BUS)
	check("critpath_pingpong_software_ns", b.CritSoftwareNS, got.CritSoftwareNS)
	check("critpath_pingpong_wire_ns", b.CritWireNS, got.CritWireNS)
	check("critpath_pingpong_switch_ns", b.CritSwitchNS, got.CritSwitchNS)
	check("critpath_pingpong_p999_us", b.CritP999US, got.CritP999US)
	return drifts
}
