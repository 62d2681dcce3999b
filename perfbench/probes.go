package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tca/internal/bench"
	"tca/internal/check"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/prof"
	"tca/internal/scenariogen"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// Layer probes drive each module through its public functions, in the
// traced run only. Each timing is the median of probeRepeats measurements.
const probeRepeats = 5

// runProbes runs every layer probe under a span named after its layer and
// fills m with the per-layer metrics. Layers that the current traced
// workload already exercised (bench for paper-suite, check for fuzz-corpus, tcad
// for tcad-storm) take their figures from the workload instead.
func runProbes(tr *tracer, current string, seed int64, m map[string]metric) error {
	var errs []error
	probe := func(layer string, fn func(span int) error) {
		span := tr.begin("probe."+layer, -1, -1)
		if err := fn(span); err != nil {
			errs = append(errs, fmt.Errorf("probe %s: %w", layer, err))
		}
		tr.end(span)
	}
	sub := func(span int, setup func(int64, int, *tracer, int) (workload, float64, error), seconds int) error {
		w, _, err := setup(seed, seconds, tr, span)
		if err != nil {
			return err
		}
		ph := w.run(tr, span)
		w.close()
		for k, v := range ph.layer {
			m[k] = v
		}
		if len(ph.problems) > 0 {
			return errors.New(ph.problems[0])
		}
		return nil
	}

	if current != "paper-suite" {
		probe("bench", func(span int) error { return sub(span, setupPaperSuite, 1) })
	}
	for _, e := range bench.All() {
		m["bench."+e.ID+"_s"] = metric{median(tr.durations("bench." + e.ID)), "s"}
	}
	probe("check", func(span int) error {
		if current != "fuzz-corpus" {
			if err := sub(span, setupFuzzCorpus, 2); err != nil {
				return err
			}
		}
		return probeCheckRun(tr, span, seed, m)
	})
	if current != "tcad-storm" {
		probe("tcad", func(span int) error { return sub(span, setupTcadStorm, 2) })
	}
	probe("scenariogen", func(int) error { probeScenariogen(seed, m); return nil })
	probe("sim", func(int) error { probeSim(m); return nil })
	probe("pcie", func(int) error { return probePCIe(m) })
	probe("peach2", func(int) error { return probePeach2(m) })
	probe("host", func(int) error { return probeHost(m) })
	probe("tcanet", func(int) error { return probeTcanet(m) })
	probe("obsv", func(int) error { return probeObsv(m) })
	return errors.Join(errs...)
}

// timeMedian runs fn probeRepeats times and returns the median host
// nanoseconds per op, where fn reports how many ops it performed.
func timeMedian(fn func() int) float64 {
	return medianOf(func() float64 {
		start := time.Now()
		n := fn()
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	})
}

// medianOf runs fn probeRepeats times and returns the median of the
// values it measured.
func medianOf(fn func() float64) float64 {
	v := make([]float64, probeRepeats)
	for i := range v {
		v[i] = fn()
	}
	return median(v)
}

// probeCheckRun times single check.Run calls (one differential protocol
// makes two or three of them).
func probeCheckRun(tr *tracer, span int, seed int64, m map[string]metric) error {
	rng := rand.New(rand.NewSource(seed))
	var ms []float64
	for i := 0; i < 24; i++ {
		s := scenariogen.Generate(rng.Int63())
		var err error
		start := time.Now()
		tr.do("check.Run", span, int64(i), func() { _, err = check.Run(s, check.Options{}) })
		if err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["check.run_ms_p50"] = metric{median(ms), "ms"}
	return nil
}

func probeScenariogen(seed int64, m map[string]metric) {
	const n = 2000
	specs := make([]scenariogen.Spec, n)
	m["scenariogen.generate_us"] = metric{timeMedian(func() int {
		rng := rand.New(rand.NewSource(seed))
		for i := range specs {
			specs[i] = scenariogen.Generate(rng.Int63())
		}
		return n
	}) / 1e3, "us"}
	m["scenariogen.roundtrip_us"] = metric{timeMedian(func() int {
		for _, s := range specs {
			if _, err := scenariogen.Parse(scenariogen.Format(s)); err != nil {
				panic(err) // Generate emits only valid specs
			}
		}
		return n
	}) / 1e3, "us"}
}

// hop is an event that re-schedules itself a pseudo-random delay ahead,
// so the engine queue holds its depth while it is stepped.
type hop struct {
	eng *sim.Engine
	x   uint64
}

func (h *hop) RunAction(now sim.Time) {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	h.eng.AtAction(0, now+sim.Time(1+h.x%4096), h)
}

func probeSim(m map[string]metric) {
	for _, d := range []struct {
		name  string
		depth int
	}{{"d2", 2}, {"d1k", 1 << 10}, {"d64k", 1 << 16}} {
		eng := sim.NewEngine()
		for i := 0; i < d.depth; i++ {
			h := &hop{eng: eng, x: uint64(i)*0x9E3779B97F4A7C15 + 1}
			eng.AtAction(0, sim.Time(1+i%4096), h)
		}
		m["sim.push_pop_ns."+d.name] = metric{timeMedian(func() int {
			const steps = 200_000
			for i := 0; i < steps; i++ {
				eng.Step()
			}
			return steps
		}), "ns"}
	}
	for _, name := range bench.PerfScenarioNames {
		var rs prof.RunStats
		m["sim.ns_per_event."+name] = metric{timeMedian(func() int {
			rs = bench.RunPerfScenario(name, tcanet.DefaultParams, nil)
			return int(rs.Events)
		}), "ns"}
		m["sim.events."+name] = metric{float64(rs.Events), "count"}
		m["sim.queue_high_water."+name] = metric{float64(rs.QueueHighWater), "count"}
	}
}

// sink is a PCIe device that frees its ingress slot at once.
type sink struct{ name string }

func (s *sink) DevName() string { return s.name }

func (s *sink) Accept(sim.Time, *pcie.TLP, *pcie.Port) units.Duration { return 0 }

// newLink connects two sinks with a Gen2 x8 link.
func newLink(eng *sim.Engine) (*pcie.Link, *pcie.Port, error) {
	a := pcie.NewPort(&sink{"a"}, "a", pcie.RoleRC)
	b := pcie.NewPort(&sink{"b"}, "b", pcie.RoleEP)
	l, err := pcie.Connect(eng, a, b, pcie.LinkParams{Config: pcie.Gen2x8, Propagation: 100 * units.Nanosecond})
	return l, a, err
}

func mwr(addr pcie.Addr, n int) *pcie.TLP {
	return &pcie.TLP{Kind: pcie.MWr, Addr: addr, Data: make([]byte, n)}
}

func probePCIe(m map[string]metric) error {
	// Backlog: n TLPs sent back-to-back queue behind the link's credits;
	// draining them costs O(n) per TLP while the FIFO pops by copy-shift.
	for _, d := range []struct {
		name string
		n    int
	}{{"d32", 32}, {"d4k", 4 << 10}, {"d16k", 16 << 10}} {
		var err error
		tlps := make([]*pcie.TLP, d.n)
		for i := range tlps {
			tlps[i] = mwr(pcie.Addr(i%16)*256, 256)
		}
		m["pcie.backlog_ns_per_tlp."+d.name] = metric{timeMedian(func() int {
			eng := sim.NewEngine()
			l, a, cerr := newLink(eng)
			if cerr != nil {
				err = cerr
				return 1
			}
			for _, t := range tlps {
				a.Send(0, t)
			}
			if want := d.n - pcie.DefaultCreditTLPs; want > 0 && l.QueuedTLPs(a) != want {
				err = fmt.Errorf("backlog %s: %d TLPs queued, want %d", d.name, l.QueuedTLPs(a), want)
			}
			eng.Run()
			return d.n
		}), "ns"}
		if err != nil {
			return err
		}
	}
	// One send→deliver→credit round, without and with a data-link layer.
	for _, withDLL := range []bool{false, true} {
		eng := sim.NewEngine()
		l, a, err := newLink(eng)
		if err != nil {
			return err
		}
		name := "pcie.link_round_ns"
		if withDLL {
			l.EnableDLL("probe", nil, pcie.DefaultDLLParams())
			name = "pcie.link_round_dll_ns"
		}
		t := mwr(0, 256)
		m[name] = metric{timeMedian(func() int {
			const rounds = 20_000
			for i := 0; i < rounds; i++ {
				a.Send(eng.Now(), t)
				eng.Run()
			}
			return rounds
		}), "ns"}
	}
	return nil
}

// ring4 builds a bare four-node ring and an 8 KiB buffer in node dst's
// host memory, returning the buffer's local and global addresses.
func ring4(dst int) (*sim.Engine, *tcanet.SubCluster, pcie.Addr, pcie.Addr, error) {
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, 4, tcanet.DefaultParams)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	buf, err := sc.Node(dst).AllocDMABuffer(8 << 10)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	g, err := sc.GlobalHostAddr(dst, buf)
	return eng, sc, buf, g, err
}

func probePeach2(m map[string]metric) error {
	// Route and forward: a store from node 0's host enters chip 0 on
	// Port N and leaves toward node 2. Batches stay below the ring
	// link's credits; the engine drains between batches, untimed.
	eng, sc, _, g, err := ring4(2)
	if err != nil {
		return err
	}
	chip := sc.Chip(0)
	in := chip.Port(peach2.PortN)
	const batch, batches = 16, 200
	tlps := make([]*pcie.TLP, batch)
	for i := range tlps {
		tlps[i] = mwr(g+pcie.Addr(i*256), 256)
	}
	m["peach2.accept_ns"] = metric{medianOf(func() float64 {
		var busy time.Duration
		for b := 0; b < batches; b++ {
			start := time.Now()
			for _, t := range tlps {
				chip.Accept(eng.Now(), t, in)
			}
			busy += time.Since(start)
			eng.Run()
		}
		return float64(busy.Nanoseconds()) / (batch * batches)
	}), "ns"}
	// DMAC: a 255 × 4 KiB chained write, 16 TLPs of 256 B per descriptor.
	m["peach2.dmac_ns_per_tlp"] = metric{timeMedian(func() int {
		bench.MeasureChain(tcanet.DefaultParams, bench.DirWrite, bench.TargetCPU, false, 4096, 255)
		return 255 * 4096 / 256
	}), "ns"}
	return nil
}

func probeHost(m map[string]metric) error {
	// The root complex is reached as the device behind socket 0's
	// upstream port; a 256 B write into DRAM is its common case.
	eng, sc, buf, _, err := ring4(0)
	if err != nil {
		return err
	}
	port := sc.Node(0).Socket(0).Upstream().Peer()
	if port == nil {
		return errors.New("socket 0 upstream port is not connected")
	}
	rc := port.Owner()
	t := mwr(buf, 256)
	m["host.rc_accept_ns"] = metric{timeMedian(func() int {
		const n = 100_000
		for i := 0; i < n; i++ {
			rc.Accept(eng.Now(), t, port)
		}
		return n
	}), "ns"}
	return nil
}

func probeTcanet(m map[string]metric) error {
	var err error
	m["tcanet.build_ms.ring16"] = metric{timeMedian(func() int {
		_, err = tcanet.BuildRing(sim.NewEngine(), 16, tcanet.DefaultParams)
		return 1
	}) / 1e6, "ms"}
	if err != nil {
		return err
	}
	m["tcanet.build_ms.dual16"] = metric{timeMedian(func() int {
		_, err = tcanet.BuildDualRing(sim.NewEngine(), 8, tcanet.DefaultParams)
		return 1
	}) / 1e6, "ms"}
	return err
}

func probeObsv(m map[string]metric) error {
	var sets []*obsv.Set
	var rings []*tcanet.SubCluster
	for i := 0; i < probeRepeats; i++ {
		sc, err := tcanet.BuildRing(sim.NewEngine(), 16, tcanet.DefaultParams)
		if err != nil {
			return err
		}
		rings = append(rings, sc)
	}
	// The span capacity check.Run uses for every fuzz run.
	m["obsv.instrument_ms.ring16"] = metric{timeMedian(func() int {
		set := obsv.NewSet(256)
		rings[len(sets)].Instrument(set)
		sets = append(sets, set)
		return 1
	}) / 1e6, "ms"}
	var snap *obsv.Snapshot
	m["obsv.snapshot_ms"] = metric{timeMedian(func() int {
		snap = sets[0].Registry().Snapshot(0)
		return 1
	}) / 1e6, "ms"}
	if len(snap.Counters) == 0 {
		return errors.New("instrumented ring has no counters")
	}
	c := snap.Counters[len(snap.Counters)/2]
	m["obsv.counter_lookup_ns"] = metric{timeMedian(func() int {
		const n = 500
		for i := 0; i < n; i++ {
			snap.Counter(c.Name, c.Component, c.Labels...)
		}
		return n
	}), "ns"}
	rec := obsv.NewRecorder(1 << 16)
	m["obsv.record_ns"] = metric{timeMedian(func() int {
		const n = 1_000_000
		for i := 0; i < n; i++ {
			rec.Record(obsv.Event{At: sim.Time(i), Txn: 1, Stage: obsv.StageCPUStore, Where: "probe"})
		}
		return n
	}), "ns"}
	bare := timeMedian(func() int { return pingPong(false) })
	inst := timeMedian(func() int { return pingPong(true) })
	m["obsv.instrumented_over_bare"] = metric{inst / bare, "ratio"}
	return nil
}

// pingPong runs 2000 flag round trips over a two-node ring, bare or
// instrumented with span-traced stores, and returns the round count.
func pingPong(instrumented bool) int {
	const rounds = 2000
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, 2, tcanet.DefaultParams)
	if err != nil {
		panic(err) // a two-node ring of default parameters always builds
	}
	if instrumented {
		sc.Instrument(obsv.NewSet(1 << 12))
	}
	flag := func(node int) (pcie.Addr, pcie.Addr) {
		buf, err := sc.Node(node).AllocDMABuffer(8)
		if err != nil {
			panic(err)
		}
		g, err := sc.GlobalHostAddr(node, buf)
		if err != nil {
			panic(err)
		}
		return buf, g
	}
	buf0, g0 := flag(0)
	buf1, g1 := flag(1)
	ping := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	pong := []byte{2, 0, 0, 0, 0, 0, 0, 0}
	left := rounds
	sc.Node(1).Poll(pcie.Range{Base: buf1, Size: 8}, func(sim.Time) { sc.Node(1).StoreTxn(g0, pong) })
	sc.Node(0).Poll(pcie.Range{Base: buf0, Size: 8}, func(sim.Time) {
		if left--; left > 0 {
			sc.Node(0).StoreTxn(g1, ping)
		}
	})
	sc.Node(0).StoreTxn(g1, ping)
	eng.Run()
	if left != 0 {
		panic(fmt.Sprintf("ping-pong stalled with %d rounds left", left))
	}
	return rounds
}
