package bench

import (
	"encoding/binary"
	"fmt"
	"math"

	"tca/internal/coll"
	"tca/internal/core"
	"tca/internal/host"
	"tca/internal/ib"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/solver"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// ExtCollectives measures the MPI-free collective library (§VI's announced
// TCA API): barrier and small-vector allreduce latency against sub-cluster
// size. Not a paper figure — an extension the repository adds on top.
func ExtCollectives(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "ExtCollectives",
		Title:   "TCA collective latency vs sub-cluster size (µs) — extension",
		XLabel:  "nodes",
		Columns: []string{"barrier", "allreduce 1KiB/node"},
	}
	for _, n := range []int{2, 4, 8, 16} {
		r := newRig(n, prm)
		eng, comm := r.eng, r.comm()
		comm.SetMode(core.Pipelined)
		cc, err := coll.New(comm)
		if err != nil {
			panic(err)
		}

		var barrierAt sim.Time
		cc.Barrier(func(now sim.Time) { barrierAt = now })
		eng.Run()

		count := n * 16 // 128 B per node chunk
		var bufs []core.HostBuffer
		for i := 0; i < n; i++ {
			b, err := comm.AllocHostBuffer(i, units.ByteSize(count*8))
			if err != nil {
				panic(err)
			}
			raw := make([]byte, count*8)
			for j := 0; j < count; j++ {
				binary.LittleEndian.PutUint64(raw[j*8:], math.Float64bits(float64(i+j)))
			}
			if err := comm.WriteHost(b, 0, raw); err != nil {
				panic(err)
			}
			bufs = append(bufs, b)
		}
		start := eng.Now()
		var arAt sim.Time
		if err := cc.Allreduce(bufs, count, func(now sim.Time) { arAt = now }); err != nil {
			panic(err)
		}
		eng.Run()
		t.AddRow(fmt.Sprintf("%d", n),
			US(barrierAt.Elapsed().Microseconds()),
			US(arAt.Sub(start).Microseconds()))
	}
	t.AddNote("barrier: dissemination over PIO flags, ⌈log2 n⌉ rounds; allreduce: ring, 2(n-1) puts per node")
	t.AddNote("sub-2KiB chunks ride PIO (the §III-F1 short-message mode); no MPI anywhere in the path (§V)")
	return t
}

// ExtCGSolve measures the distributed conjugate-gradient application's
// communication time per iteration against sub-cluster size — the
// "full-scale scientific application" trajectory of §VI. Extension.
func ExtCGSolve(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "ExtCGSolve",
		Title:   "Distributed CG (1-D Poisson, 64 unknowns): per-iteration communication time (µs) — extension",
		XLabel:  "nodes",
		Columns: []string{"iterations", "total (µs)", "per iteration (µs)"},
	}
	for _, n := range []int{2, 4, 8} {
		r := newRig(n, prm)
		eng, comm := r.eng, r.comm()
		comm.SetMode(core.Pipelined)
		cc, err := coll.New(comm)
		if err != nil {
			panic(err)
		}
		const N = 64
		cg, err := solver.New(comm, cc, N)
		if err != nil {
			panic(err)
		}
		xStar := make([]float64, N)
		for i := range xStar {
			xStar[i] = math.Cos(0.29 * float64(i))
		}
		b := make([]float64, N)
		for i := range xStar {
			b[i] = 2 * xStar[i]
			if i > 0 {
				b[i] -= xStar[i-1]
			}
			if i < N-1 {
				b[i] -= xStar[i+1]
			}
		}
		if err := cg.SetB(b); err != nil {
			panic(err)
		}
		var st solver.Stats
		cg.Solve(1e-10, 10*N, func(s solver.Stats) { st = s })
		eng.Run()
		if st.Iterations == 0 {
			panic("bench: CG did not iterate")
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", st.Iterations),
			US(st.Elapsed.Microseconds()),
			US(st.Elapsed.Microseconds()/float64(st.Iterations)))
	}
	t.AddNote("traffic is 8-byte halo cells and scalar reductions — the short-message class TCA targets (§I)")
	return t
}

// ExtRingScaling stresses the sub-cluster size limit the paper designs
// around ("a large number of nodes degrades the performance", §II-B):
// every node simultaneously streams a 255×4 KiB chain to its antipode, the
// worst-distance all-shift pattern, and the per-flow bandwidth shows how
// ring contention grows with node count. Extension experiment.
func ExtRingScaling(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "ExtRingScaling",
		Title:   "Concurrent antipodal 255×4KiB puts: per-flow bandwidth vs ring size (GB/s) — extension",
		XLabel:  "nodes",
		Columns: []string{"per-flow", "aggregate", "vs single-flow peak"},
	}
	const size = 4096
	const count = 255
	total := units.ByteSize(size * count)
	for _, n := range []int{2, 4, 8, 16} {
		last := newRig(n, prm).allShift(size, count)
		perFlow := units.Rate(total, last.Elapsed())
		agg := units.Bandwidth(perFlow.BytesPerSec() * float64(n))
		single := 3.322
		t.AddRow(fmt.Sprintf("%d", n), GB(perFlow.GBps()), GB(agg.GBps()),
			fmt.Sprintf("%.0f%%", 100*perFlow.GBps()/single))
	}
	t.AddNote("every node targets its antipode; shortest-arc routing splits flows over both directions")
	t.AddNote("§II-B: sub-clusters stay at 8–16 nodes because contention (and cable reach) grows with size")
	return t
}

// allShift starts one count×size write chain on every node of the ring at
// once, each to its antipode's host memory, drains the engine and returns
// when the last flow completed.
func (r *Rig) allShift(size units.ByteSize, count int) sim.Time {
	n := r.sc.Nodes()
	total := size * units.ByteSize(count)
	comm := r.comm()
	done := 0
	var last sim.Time
	for i := 0; i < n; i++ {
		if err := r.sc.Chip(i).InternalMemory().Write(0, make([]byte, size)); err != nil {
			panic(err)
		}
		dstNode := (i + n/2) % n
		buf, err := r.sc.Node(dstNode).AllocDMABuffer(total)
		if err != nil {
			panic(err)
		}
		g, err := r.sc.GlobalHostAddr(dstNode, buf)
		if err != nil {
			panic(err)
		}
		if err := comm.StartChain(i, buildWriteChain(uint64(g), size, count), func(now sim.Time) {
			done++
			if now > last {
				last = now
			}
		}); err != nil {
			panic(err)
		}
	}
	r.eng.Run()
	if done != n {
		panic(fmt.Sprintf("bench: %d/%d flows completed", done, n))
	}
	return last
}

// buildWriteChain makes a count-descriptor chain of size-byte writes from
// internal-memory offset 0 to consecutive destinations at dst.
func buildWriteChain(dst uint64, size units.ByteSize, count int) []peach2.Descriptor {
	descs := make([]peach2.Descriptor, 0, count)
	for i := 0; i < count; i++ {
		descs = append(descs, peach2.Descriptor{
			Kind: peach2.DescWrite,
			Len:  size,
			Src:  0,
			Dst:  dst + uint64(i)*uint64(size),
		})
	}
	return descs
}

// ExtLatencyBudget decomposes the §IV-B1 loopback latency into its stages
// by zeroing one cost at a time and measuring the difference — the
// reproduction's answer to "where do the 782 ns go?". Extension.
func ExtLatencyBudget(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "ExtLatencyBudget",
		Title:   "PIO loopback latency budget: contribution per pipeline stage (ns) — extension",
		XLabel:  "stage",
		Columns: []string{"contribution"},
	}
	base := MeasureLoopbackPIO(prm).Nanoseconds()
	add := func(name string, mod func(*tcanet.Params)) {
		p := prm
		mod(&p)
		t.AddRow(name, fmt.Sprintf("%.1f", base-MeasureLoopbackPIO(p).Nanoseconds()))
	}
	add("CPU store to root complex", func(p *tcanet.Params) { p.Host.StoreLatency = 0 })
	add("socket switch forwards (2x)", func(p *tcanet.Params) { p.Host.Switch.ForwardLatency = 0 })
	add("PEACH2 router pipelines (2x)", func(p *tcanet.Params) { p.Chip.RouterLatency = 0 })
	add("Port-N address conversion", func(p *tcanet.Params) { p.Chip.NConvLatency = 0 })
	add("external cable + SerDes", func(p *tcanet.Params) { p.CableProp = 0 })
	add("host-side link flight", func(p *tcanet.Params) { p.HostLinkProp = 0 })
	add("poll-loop detection", func(p *tcanet.Params) { p.Host.PollDetectLatency = 0 })
	t.AddRow("total measured", fmt.Sprintf("%.1f", base))
	t.AddNote("paper §IV-B1: 782 ns through two chips; the remainder after the listed stages is wire serialization")
	return t
}

// ExtCollVsMPI quantifies the §V claim directly: the identical ring
// allreduce schedule run over TCA primitives versus over the InfiniBand
// MPI layer, for a small vector (the latency-bound regime) and a larger
// one. Extension.
func ExtCollVsMPI(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "ExtCollVsMPI",
		Title:   "Ring allreduce latency, TCA vs MPI-over-IB (µs) — extension",
		XLabel:  "config",
		Columns: []string{"TCA", "MPI/IB", "TCA speedup"},
	}
	for _, cfg := range []struct {
		n      int
		chunkB int
	}{{4, 128}, {8, 128}, {4, 8192}, {8, 8192}} {
		count := cfg.n * cfg.chunkB / 8

		// TCA side.
		var tcaLat units.Duration
		{
			r := newRig(cfg.n, prm)
			eng, comm := r.eng, r.comm()
			comm.SetMode(core.Pipelined)
			cc, err := coll.New(comm)
			if err != nil {
				panic(err)
			}
			var bufs []core.HostBuffer
			for i := 0; i < cfg.n; i++ {
				b, err := comm.AllocHostBuffer(i, units.ByteSize(count*8))
				if err != nil {
					panic(err)
				}
				if err := comm.WriteHost(b, 0, make([]byte, count*8)); err != nil {
					panic(err)
				}
				bufs = append(bufs, b)
			}
			start := eng.Now()
			var end sim.Time
			if err := cc.Allreduce(bufs, count, func(now sim.Time) { end = now }); err != nil {
				panic(err)
			}
			eng.Run()
			tcaLat = end.Sub(start)
		}

		// MPI side: same schedule over the IB fabric.
		var mpiLat units.Duration
		{
			eng := sim.NewEngine()
			var nodes []*host.Node
			for i := 0; i < cfg.n; i++ {
				nodes = append(nodes, host.NewNode(eng, i, prm.Host))
			}
			f, err := ib.NewFabric(eng, nodes, ib.QDRParams)
			if err != nil {
				panic(err)
			}
			bufs := make([]pcie.Addr, cfg.n)
			for i := 0; i < cfg.n; i++ {
				b, err := nodes[i].AllocDMABuffer(units.ByteSize(count * 8))
				if err != nil {
					panic(err)
				}
				if err := nodes[i].WriteLocal(b, make([]byte, count*8)); err != nil {
					panic(err)
				}
				bufs[i] = b
			}
			start := eng.Now()
			var end sim.Time
			if err := f.RingAllreduce(bufs, count, func(now sim.Time) { end = now }); err != nil {
				panic(err)
			}
			eng.Run()
			mpiLat = end.Sub(start)
		}

		t.AddRow(fmt.Sprintf("%d nodes × %dB chunks", cfg.n, cfg.chunkB),
			US(tcaLat.Microseconds()), US(mpiLat.Microseconds()),
			fmt.Sprintf("%.1fx", mpiLat.Picoseconds()/tcaLat.Picoseconds()))
	}
	t.AddNote("identical ring schedule both sides; the difference is pure stack cost (§V)")
	t.AddNote("TCA wins the latency-bound regime (PIO path); for multi-KiB host-to-host chunks the DMA " +
		"activation (~3 µs doorbell+fetch+IRQ) outweighs MPI's stack — TCA's bulk advantage is the " +
		"GPU-direct path (see Baseline), not host-to-host bandwidth")
	return t
}
