package bench

import (
	"fmt"

	"tca/internal/host"
	"tca/internal/ib"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// Fig7Sizes are the per-descriptor sizes of the 255-burst sweep.
var Fig7Sizes = []units.ByteSize{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Fig8Sizes extend to the megabyte range where a single descriptor
// amortizes its activation.
var Fig8Sizes = []units.ByteSize{64, 256, 1024, 4096, 16 * units.KiB, 64 * units.KiB, 256 * units.KiB, units.MiB}

// Fig9Counts are the burst counts at fixed 4 KiB.
var Fig9Counts = []int{1, 2, 4, 8, 16, 32, 64, 128, 255}

// Fig7 regenerates "Data Size vs. Bandwidth between PEACH2 and the CPU/GPU
// (DMA 255 times)".
func Fig7(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "Fig7",
		Title:   "Data size vs bandwidth, PEACH2 ↔ CPU/GPU within a node, 255 chained DMAs (GB/s)",
		XLabel:  "size",
		Columns: []string{"CPU write", "CPU read", "GPU write", "GPU read"},
	}
	for _, size := range Fig7Sizes {
		vals := make([]string, 0, 4)
		for _, tg := range []Target{TargetCPU, TargetGPU} {
			for _, dir := range []Dir{DirWrite, DirRead} {
				bw := MeasureChain(prm, dir, tg, false, size, 255)
				vals = append(vals, GB(bw.GBps()))
			}
		}
		// Reorder to CPUw, CPUr, GPUw, GPUr.
		t.AddRow(units.ByteSize(size).String(), vals[0], vals[1], vals[2], vals[3])
	}
	t.AddNote("paper: DMA write peaks at 3.3 GB/s at 4 KiB — 93%% of the 3.66 GB/s theoretical peak")
	t.AddNote("paper: GPU write ≈ CPU write; GPU read ceiling ≈ 0.83 GB/s (BAR translation, §IV-A2)")
	t.AddNote("paper: DMA read < write at small sizes, ≈ write at 4 KiB")
	return t
}

// Fig8 regenerates "Data Size vs. Bandwidth (single DMA)".
func Fig8(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "Fig8",
		Title:   "Data size vs bandwidth, single DMA descriptor (GB/s)",
		XLabel:  "size",
		Columns: []string{"CPU write", "CPU read", "GPU write", "GPU read"},
	}
	for _, size := range Fig8Sizes {
		vals := make([]string, 0, 4)
		for _, tg := range []Target{TargetCPU, TargetGPU} {
			for _, dir := range []Dir{DirWrite, DirRead} {
				bw := MeasureChain(prm, dir, tg, false, size, 1)
				vals = append(vals, GB(bw.GBps()))
			}
		}
		t.AddRow(units.ByteSize(size).String(), vals[0], vals[1], vals[2], vals[3])
	}
	t.AddNote("paper: severely degraded versus 255-burst at small sizes — descriptor-table retrieval dominates")
	t.AddNote("paper: a single 8 KiB+ transfer ≈ two or more 4 KiB chained requests")
	return t
}

// Fig9 regenerates "Number of DMA Requests vs. Bandwidth (fixed 4 KiB)".
func Fig9(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "Fig9",
		Title:   "Burst count vs bandwidth at fixed 4 KiB per descriptor (GB/s)",
		XLabel:  "requests",
		Columns: []string{"CPU write", "CPU read", "GPU write", "GPU read"},
	}
	var peak float64
	var four float64
	for _, count := range Fig9Counts {
		vals := make([]string, 0, 4)
		var cpuW float64
		for _, tg := range []Target{TargetCPU, TargetGPU} {
			for _, dir := range []Dir{DirWrite, DirRead} {
				bw := MeasureChain(prm, dir, tg, false, 4096, count)
				if tg == TargetCPU && dir == DirWrite {
					cpuW = bw.GBps()
				}
				vals = append(vals, GB(bw.GBps()))
			}
		}
		if cpuW > peak {
			peak = cpuW
		}
		if count == 4 {
			four = cpuW
		}
		t.AddRow(fmt.Sprintf("%d", count), vals[0], vals[1], vals[2], vals[3])
	}
	t.AddNote("paper: 4 requests reach ≈70%% of the maximum — measured %0.f%%", 100*four/peak)
	t.AddNote("paper: same total bytes ⇒ same bandwidth regardless of descriptor count")
	return t
}

// Fig12 regenerates "Data Size vs. Bandwidth between PEACH2 and CPU/GPU on
// an Adjacent Node via PEACH2 (DMA 255 times)"; the local columns repeat
// Fig. 7's write lines for comparison, as the paper does.
func Fig12(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "Fig12",
		Title:   "Data size vs bandwidth, remote DMA write to the adjacent node (GB/s)",
		XLabel:  "size",
		Columns: []string{"CPU local", "CPU remote", "GPU local", "GPU remote"},
	}
	for _, size := range Fig7Sizes {
		var vals []string
		for _, tg := range []Target{TargetCPU, TargetGPU} {
			for _, remote := range []bool{false, true} {
				bw := MeasureChain(prm, DirWrite, tg, remote, size, 255)
				vals = append(vals, GB(bw.GBps()))
			}
		}
		t.AddRow(units.ByteSize(size).String(), vals[0], vals[1], vals[2], vals[3])
	}
	t.AddNote("paper: remote CPU bandwidth dips at small sizes (inter-PEACH2 latency), ≈ local at 4 KiB")
	t.AddNote("paper: remote GPU ≈ local GPU — the deep request queue absorbs the hop (§IV-B2)")
	return t
}

// LatencyPIO regenerates the §IV-B1 loopback measurement and sets it beside
// the InfiniBand latencies the paper compares against.
func LatencyPIO(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "LatencyPIO",
		Title:   "Small-message one-way latency (µs)",
		XLabel:  "path",
		Columns: []string{"latency"},
	}

	t.AddRow("PEACH2 PIO (2-chip loopback)", US(MeasureLoopbackPIO(prm).Microseconds()))
	adjacent := newRig(2, prm).StoreStream(0, 1, 1, []byte{1, 2, 3, 4})
	t.AddRow("PEACH2 PIO (adjacent node on a ring)", US(adjacent.EndToEnd.Microseconds()))
	// Chained-DMA small message, remote: activation dominates.
	bw := MeasureChain(prm, DirWrite, TargetCPU, true, 8, 1)
	t.AddRow("PEACH2 DMA 8B (remote, incl. activation+IRQ)", US(8/bw.BytesPerSec()*1e6))

	// InfiniBand verbs and MPI.
	{
		eng := sim.NewEngine()
		p := newIBPair(eng, prm)
		var verbsAt, mpiAt sim.Time
		if err := p.fabric.VerbsSend(0, 1, p.src, p.dst, 4, func(now sim.Time) { verbsAt = now }); err != nil {
			panic(err)
		}
		eng.Run()
		base := eng.Now()
		if err := p.fabric.MPISend(0, 1, p.src, p.dst, 4, func(now sim.Time) { mpiAt = now }); err != nil {
			panic(err)
		}
		eng.Run()
		t.AddRow("InfiniBand verbs 4B", US(verbsAt.Elapsed().Microseconds()))
		t.AddRow("InfiniBand MPI 4B", US(mpiAt.Sub(base).Microseconds()))
	}

	t.AddNote("paper: PEACH2 transfer latency = 782 ns; InfiniBand FDR announced as <1 µs")
	t.AddNote("paper: PEACH2 ≈ same or slightly less than InfiniBand; PIO is the short-message mode (§III-F1)")
	return t
}

// ibPair is a 2-node IB fabric with one registered buffer per side.
type ibPair struct {
	fabric *ib.Fabric
	nodes  []*host.Node
	src    pcie.Addr
	dst    pcie.Addr
}

func newIBPair(eng *sim.Engine, prm tcanet.Params) *ibPair {
	nodes := []*host.Node{
		host.NewNode(eng, 0, prm.Host),
		host.NewNode(eng, 1, prm.Host),
	}
	f, err := ib.NewFabric(eng, nodes, ib.QDRParams)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	src, _ := nodes[0].AllocDMABuffer(units.MiB)
	dst, _ := nodes[1].AllocDMABuffer(units.MiB)
	if err := nodes[0].WriteLocal(src, make([]byte, units.MiB)); err != nil {
		panic(err)
	}
	return &ibPair{fabric: f, nodes: nodes, src: src, dst: dst}
}
