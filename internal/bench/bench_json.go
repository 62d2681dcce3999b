package bench

import (
	"encoding/json"
	"io"

	"tca/internal/core"
	"tca/internal/obsv/critpath"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// BenchBaselineSchema versions the BENCH_*.json layout. /2 added the
// ping-pong critical-path budget figures.
const BenchBaselineSchema = "tca-bench-baseline/2"

// BenchBaseline is the machine-readable capture of the paper's headline numbers
// — the figures every regression run is compared against. All values come
// from the deterministic simulation, so committed baselines reproduce
// bit-for-bit until the model deliberately changes.
type BenchBaseline struct {
	Schema string `json:"schema"`
	// Fig. 7: chained-DMA bandwidth ceiling (255×4 KiB write) and the
	// GPU-read ceiling.
	PeakWriteGBps float64 `json:"fig7_peak_write_gbps"`
	GPUReadGBps   float64 `json:"fig7_gpu_read_gbps"`
	// Fig. 8/9: single-descriptor and 4-burst 4 KiB bandwidth.
	SingleDMAGBps float64 `json:"fig8_single_dma_4k_gbps"`
	Burst4GBps    float64 `json:"fig9_burst4_4k_gbps"`
	// Fig. 10: minimum ping-pong latency (loopback PIO) and the marginal
	// cost of one forwarding hop on the ring.
	MinPingPongUS float64 `json:"fig10_min_pingpong_us"`
	PerHopNS      float64 `json:"fig10_per_hop_ns"`
	// Baseline table: 8-byte GPU-to-GPU put, TCA pipelined vs conventional
	// (cudaMemcpy + MPI/IB).
	TCAGPU8BUS  float64 `json:"tca_gpu_8b_us"`
	ConvGPU8BUS float64 `json:"conventional_gpu_8b_us"`
	// Latency anatomy: the ping-pong leg's critical-path budget on the
	// 4-node ring (node 0 ↔ node 2, mean ns per leg per bucket) and the
	// fleet's p999 leg latency — the critpath engine's own regression
	// anchors.
	CritSoftwareNS float64 `json:"critpath_pingpong_software_ns"`
	CritWireNS     float64 `json:"critpath_pingpong_wire_ns"`
	CritSwitchNS   float64 `json:"critpath_pingpong_switch_ns"`
	CritP999US     float64 `json:"critpath_pingpong_p999_us"`
}

// CollectBaseline measures every baseline figure with the given parameters.
func CollectBaseline(prm tcanet.Params) BenchBaseline {
	round := func(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }
	hop := MeasurePIOLatency(prm, 4, 0, 2).Nanoseconds() - MeasurePIOLatency(prm, 4, 0, 1).Nanoseconds()
	r, res, err := Scenario{Kernel: KernelPingPong, Nodes: 4, Src: 0, Dst: 2, Rounds: 4}.Run(prm, Attach{Obsv: true})
	if err != nil {
		panic(err)
	}
	fleet := critpath.Analyze("ping-pong node0<->node2", r.Set.Recorder(), res.Txns)
	legs := units.Duration(len(fleet.Budgets))
	meanNS := func(b critpath.Bucket) float64 {
		return round((fleet.Totals[b] / legs).Nanoseconds())
	}
	return BenchBaseline{
		Schema:         BenchBaselineSchema,
		PeakWriteGBps:  round(MeasureChain(prm, DirWrite, TargetCPU, false, 4096, 255).GBps()),
		GPUReadGBps:    round(MeasureChain(prm, DirRead, TargetGPU, false, 4096, 255).GBps()),
		SingleDMAGBps:  round(MeasureChain(prm, DirWrite, TargetCPU, false, 4096, 1).GBps()),
		Burst4GBps:     round(MeasureChain(prm, DirWrite, TargetCPU, false, 4096, 4).GBps()),
		MinPingPongUS:  round(MeasureLoopbackPIO(prm).Microseconds()),
		PerHopNS:       round(hop),
		TCAGPU8BUS:     round(MeasureTCAGPU(prm, core.Pipelined, 8).Microseconds()),
		ConvGPU8BUS:    round(MeasureConventionalGPU(prm, 8).Microseconds()),
		CritSoftwareNS: meanNS(critpath.BucketSoftware),
		CritWireNS:     meanNS(critpath.BucketWire),
		CritSwitchNS:   meanNS(critpath.BucketSwitch),
		CritP999US:     round(fleet.Ladder.P999),
	}
}

// WriteJSON emits the baseline as indented JSON.
func (b BenchBaseline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
