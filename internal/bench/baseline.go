package bench

import (
	"fmt"

	"tca/internal/core"
	"tca/internal/host"
	"tca/internal/ib"
	"tca/internal/ntb"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// BaselineSizes sweep the motivation comparison.
var BaselineSizes = []units.ByteSize{8, 64, 512, 4096, 32 * units.KiB, 256 * units.KiB, units.MiB}

// Baseline regenerates the paper's motivating comparison (§I, §III-A): a
// GPU-to-GPU transfer between adjacent nodes through the conventional
// three-copy InfiniBand/MPI path versus direct TCA communication.
func Baseline(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "Baseline",
		Title:   "GPU-to-GPU transfer latency between adjacent nodes (µs)",
		XLabel:  "size",
		Columns: []string{"TCA DMA two-phase", "TCA DMA pipelined", "IB/MPI 3-copy", "speedup (3-copy / pipelined)"},
	}
	for _, size := range BaselineSizes {
		two := MeasureTCAGPU(prm, core.TwoPhase, size)
		pipe := MeasureTCAGPU(prm, core.Pipelined, size)
		conv := MeasureConventionalGPU(prm, size)
		t.AddRow(size.String(),
			US(two.Microseconds()),
			US(pipe.Microseconds()),
			US(conv.Microseconds()),
			fmt.Sprintf("%.1fx", conv.Picoseconds()/pipe.Picoseconds()))
	}
	t.AddNote("paper §I: multiple memory copies via CPU memory severely degrade short-message performance")
	t.AddNote("paper §V: TCA eliminates the PCIe→InfiniBand protocol conversion and the MPI stack")
	t.AddNote("crossover at tens of KiB is expected: PEACH2 reads GPU BAR at ~0.83 GB/s while cudaMemcpy streams " +
		"multi-GB/s — hence the paper's hierarchical TCA-for-latency / IB-for-bandwidth design (§II-B)")
	return t
}

// MeasureTCAGPU times one cross-node GPU-to-GPU MemcpyPeer in the given
// DMA mode.
func MeasureTCAGPU(prm tcanet.Params, mode core.DMAMode, size units.ByteSize) units.Duration {
	r := newRig(2, prm)
	comm := r.comm()
	comm.SetMode(mode)
	src, err := comm.RegisterGPUBuffer(0, 0, size)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	dst, err := comm.RegisterGPUBuffer(1, 0, size)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	if err := comm.WriteGPU(src, 0, make([]byte, size)); err != nil {
		panic(err)
	}
	start := r.eng.Now()
	var end sim.Time
	if err := comm.MemcpyPeer(dst, 0, src, 0, size, func(now sim.Time) { end = now }); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	r.eng.Run()
	return end.Sub(start)
}

// MeasureConventionalGPU times the same transfer through the three-copy
// InfiniBand/MPI path: DtoH + MPI + HtoD.
func MeasureConventionalGPU(prm tcanet.Params, size units.ByteSize) units.Duration {
	eng := sim.NewEngine()
	p := newIBPair(eng, prm)
	conv, err := ib.NewConventional(p.fabric, units.MiB)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	srcPtr, _ := p.nodes[0].GPU(0).MemAlloc(size)
	dstPtr, _ := p.nodes[1].GPU(0).MemAlloc(size)
	if err := p.nodes[0].GPU(0).Memory().Write(uint64(srcPtr), make([]byte, size)); err != nil {
		panic(err)
	}
	start := eng.Now()
	var end sim.Time
	if err := conv.GPUToGPU(0, 0, srcPtr, 1, 0, dstPtr, size, func(now sim.Time) { end = now }); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	eng.Run()
	return end.Sub(start)
}

// AblationDMAC sweeps the two-phase versus pipelined DMAC for host-sourced
// remote puts — design choice 3 of DESIGN.md §6 and the paper's announced
// "new DMAC" (§IV-B2).
func AblationDMAC(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "AblationDMAC",
		Title:   "Host-to-remote-host put bandwidth: two-phase vs pipelined DMAC (GB/s)",
		XLabel:  "size",
		Columns: []string{"two-phase", "pipelined", "gain"},
	}
	for _, size := range []units.ByteSize{4096, 16 * units.KiB, 64 * units.KiB, 256 * units.KiB, units.MiB} {
		var bw [2]float64
		for i, mode := range []core.DMAMode{core.TwoPhase, core.Pipelined} {
			r := newRig(2, prm)
			comm := r.comm()
			comm.SetMode(mode)
			srcBuf, _ := comm.AllocHostBuffer(0, size)
			dstBuf, _ := comm.AllocHostBuffer(1, size)
			if err := comm.WriteHost(srcBuf, 0, make([]byte, size)); err != nil {
				panic(err)
			}
			start := r.eng.Now()
			var end sim.Time
			if err := comm.PutToHost(dstBuf, 0, 0, srcBuf.Bus, size, func(now sim.Time) { end = now }); err != nil {
				panic(fmt.Sprintf("bench: %v", err))
			}
			r.eng.Run()
			bw[i] = units.Rate(size, end.Sub(start)).GBps()
		}
		t.AddRow(size.String(), GB(bw[0]), GB(bw[1]), fmt.Sprintf("%.2fx", bw[1]/bw[0]))
	}
	t.AddNote("paper §IV-B2: the two-phase procedure 'seriously impacts the performance'; the new DMAC pipelines both requests")
	return t
}

// AblationNTB compares a PEACH2 hop against a non-transparent-bridge hop —
// design choice 1 of DESIGN.md §6 (§V related work).
func AblationNTB(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "AblationNTB",
		Title:   "Small-write one-way latency: PEACH2 routing vs NTB translation (µs)",
		XLabel:  "path",
		Columns: []string{"latency"},
	}
	// PEACH2: adjacent-node PIO store.
	peach := newRig(2, prm).StoreStream(0, 1, 1, []byte{1, 2, 3, 4})
	t.AddRow("PEACH2 (compare-only routing)", US(peach.EndToEnd.Microseconds()))
	// NTB pair.
	{
		eng := sim.NewEngine()
		a := host.NewNode(eng, 0, prm.Host)
		b := host.NewNode(eng, 1, prm.Host)
		br := ntb.New(eng, "ntb", ntb.DefaultParams)
		// The NTB switch sits in an external enclosure between the two
		// hosts: one external cable per side.
		win := pcie.Range{Base: 0x90_0000_0000, Size: 1 << 30}
		lp := pcie.LinkParams{Config: pcie.Gen2x8, Propagation: prm.CableProp}
		if err := a.AttachDevice(0, "ntb", win, br.Port(ntb.SideA), lp); err != nil {
			panic(err)
		}
		if err := b.AttachDevice(0, "ntb", win, br.Port(ntb.SideB), lp); err != nil {
			panic(err)
		}
		if err := br.AddMapping(ntb.SideA, win, 0); err != nil {
			panic(err)
		}
		flag, _ := b.AllocDMABuffer(64)
		var seen sim.Time
		b.Poll(pcie.Range{Base: flag, Size: 4}, func(now sim.Time) { seen = now })
		a.Store(win.Base+flag, []byte{1, 2, 3, 4})
		eng.Run()
		t.AddRow("NTB (table translation)", US(seen.Elapsed().Microseconds()))
	}
	t.AddNote("§V: NTB needs address translation and couples host lifetimes (peer loss ⇒ reboot); PEACH2's ports are independent")
	t.AddNote("NTB joins exactly two hosts; a sub-cluster needs a bridge per pair, PEACH2 needs one ring")
	return t
}

// AblationPayload varies the negotiated MaxPayload — design choice 5 —
// against the §IV-A peak formula.
func AblationPayload(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "AblationPayload",
		Title:   "MaxPayload sensitivity: theoretical vs measured chained-write peak (GB/s)",
		XLabel:  "max payload",
		Columns: []string{"theoretical", "measured (255×4KiB)"},
	}
	for _, mp := range []units.ByteSize{128, 256, 512} {
		theory := prm.Chip.LinkConfig.EffectiveBandwidth(mp).GBps()
		p := prm
		p.MaxPayload = mp
		bw := MeasureChain(p, DirWrite, TargetCPU, false, 4096, 255)
		t.AddRow(mp.String(), GB(theory), GB(bw.GBps()))
	}
	t.AddNote("§IV-A: effective rate = raw × payload/(payload+24B overhead); the test environment negotiated 256B")
	return t
}

// AblationImmediate compares the descriptor-table activation against the
// register-written immediate descriptor the paper wishes for ("the DMA
// function without a descriptor is also desired for relatively small
// amounts of data", §IV-A1).
func AblationImmediate(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "AblationImmediate",
		Title:   "Single small local DMA write: table-fetch activation vs immediate descriptor (µs)",
		XLabel:  "size",
		Columns: []string{"table activation", "immediate", "saved"},
	}
	for _, size := range []units.ByteSize{256, 512, 1024, 4096} {
		// Through the driver/table path.
		tablePath := newRig(2, prm).ChainDMA(Chain{Size: size, Count: 1}).EndToEnd
		// Immediate: doorbell decode straight into execution.
		var immediate units.Duration
		{
			r := newRig(2, prm)
			buf, _ := r.sc.Node(0).AllocDMABuffer(size)
			if err := r.sc.Chip(0).InternalMemory().Write(0, make([]byte, size)); err != nil {
				panic(err)
			}
			var end sim.Time
			r.sc.Chip(0).SetIRQHandler(func(now sim.Time) { end = now })
			start := r.eng.Now()
			r.sc.Chip(0).DMAC().StartImmediate(start, peach2.Descriptor{
				Kind: peach2.DescWrite, Len: size, Src: 0, Dst: uint64(buf),
			})
			r.eng.Run()
			immediate = end.Sub(start)
		}
		t.AddRow(size.String(), US(tablePath.Microseconds()), US(immediate.Microseconds()),
			US((tablePath - immediate).Microseconds()))
	}
	t.AddNote("§IV-A1: retrieving the descriptor table dominates single small DMAs")
	return t
}

// AblationRouting compares shortest-arc ring routing against a naive fixed-
// eastward configuration — design choice 4 — by measuring PIO latency to
// every hop distance on an 8-node ring.
func AblationRouting(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "AblationRouting",
		Title:   "PIO latency from node 0 by destination, 8-node ring (µs)",
		XLabel:  "destination",
		Columns: []string{"shortest-arc", "fixed-east"},
	}
	measure := func(fixedEast bool, dst int) float64 {
		r := newRig(8, prm)
		if fixedEast {
			// All remote windows route east: up to two contiguous
			// ranges of node ids from each source's perspective.
			for i := 0; i < 8; i++ {
				mask := ^pcie.Addr(uint64(r.sc.Plan().WindowSize()) - 1)
				var rules []peach2.RouteRule
				if i < 7 {
					rules = append(rules, peach2.RouteRule{Mask: mask,
						Lower: r.sc.Plan().NodeWindow(i + 1).Base,
						Upper: r.sc.Plan().NodeWindow(7).Base,
						Out:   peach2.PortE})
				}
				if i > 0 {
					rules = append(rules, peach2.RouteRule{Mask: mask,
						Lower: r.sc.Plan().NodeWindow(0).Base,
						Upper: r.sc.Plan().NodeWindow(i - 1).Base,
						Out:   peach2.PortE})
				}
				r.sc.Chip(i).SetRoutes(rules)
			}
		}
		return r.StoreStream(0, dst, 1, []byte{1, 2, 3, 4}).EndToEnd.Microseconds()
	}
	for dst := 1; dst < 8; dst++ {
		t.AddRow(fmt.Sprintf("node %d", dst),
			US(measure(false, dst)), US(measure(true, dst)))
	}
	t.AddNote("shortest-arc halves the worst case; Fig. 5's register scheme encodes either policy")
	return t
}
