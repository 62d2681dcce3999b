package bench

import (
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// MeasureChain runs one chained-DMA measurement on a fresh sub-cluster:
// count descriptors of size bytes, against the CPU or a GPU, locally or on
// the adjacent node, returning the bandwidth the paper's methodology
// reports (driver activation through completion interrupt).
func MeasureChain(prm tcanet.Params, dir Dir, target Target, remote bool, size units.ByteSize, count int) units.Bandwidth {
	c := Chain{Dir: dir, Target: target, Size: size, Count: count}
	if remote {
		c.Dst = 1
	}
	res := newRig(2, prm).ChainDMA(c)
	return units.Rate(res.Moved, res.EndToEnd)
}

// MeasureLoopbackPIO runs the §IV-B1 two-board loopback once and returns
// the store-to-poll latency (the paper's 782 ns).
func MeasureLoopbackPIO(prm tcanet.Params) units.Duration {
	eng := sim.NewEngine()
	lb, err := tcanet.BuildLoopback(eng, prm)
	if err != nil {
		panic(err)
	}
	flag, _ := lb.Node.AllocDMABuffer(64)
	dst := lb.Plan.HostBlock(0).Base + pcie.Addr(flag)
	var seen sim.Time
	lb.Node.Poll(pcie.Range{Base: flag, Size: 4}, func(now sim.Time) { seen = now })
	lb.Node.Store(dst, []byte{1, 2, 3, 4})
	eng.Run()
	if seen == 0 {
		panic("bench: loopback write never observed")
	}
	return seen.Elapsed()
}

// MeasureIBStream measures the IB fabric's streamed large-message
// bandwidth (eight back-to-back 1 MiB MPI sends).
func MeasureIBStream(prm tcanet.Params) units.Bandwidth {
	eng := sim.NewEngine()
	p := newIBPair(eng, prm)
	const chunk = units.MiB
	const n = 8
	start := eng.Now()
	var end sim.Time
	for i := 0; i < n; i++ {
		if err := p.fabric.MPISend(0, 1, p.src, p.dst, chunk, func(now sim.Time) { end = now }); err != nil {
			panic(err)
		}
	}
	eng.Run()
	return units.Rate(n*chunk, end.Sub(start))
}
