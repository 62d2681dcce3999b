package bench

import (
	"fmt"

	"tca/internal/core"
	"tca/internal/fault"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// Every bench scenario runs on a Rig: one fresh, deterministic ring with
// optional attachments, driven by one of three kernels — the PIO flag
// ping-pong, the poll-paced store stream, and the sequential chained DMA.
// Callers derive spans, latency fleets, metrics snapshots and telemetry
// timelines from the rig and the kernel's Result.

// Target selects the memory the DMA controller exercises.
type Target int

// Targets.
const (
	TargetCPU Target = iota
	TargetGPU
)

func (t Target) String() string {
	if t == TargetGPU {
		return "GPU"
	}
	return "CPU"
}

// Dir is the transfer direction from PEACH2's point of view, matching the
// paper's convention: "a DMA write indicates a transfer from PEACH2 to
// CPU/GPU" (§IV-A).
type Dir int

// Directions.
const (
	DirWrite Dir = iota
	DirRead
)

func (d Dir) String() string {
	if d == DirRead {
		return "read"
	}
	return "write"
}

// spanCap bounds an observed rig's event retention. A 255-descriptor
// chain across two hops records about 45,000 events; a longer run evicts
// its oldest events, and every report counts them.
const spanCap = 1 << 16

// hostSeriesCap bounds the profiler's cumulative host-time series; one
// point lands per timed sample, so the ring must hold a scenario's worth.
const hostSeriesCap = 8192

// Attach selects a rig's attachments. Each is independent of the others;
// the zero value is a bare ring.
type Attach struct {
	// Obsv attaches an observability set: transaction spans, metrics and
	// the telemetry sampler's probes. NoSpans leaves the spans out: the
	// set has no recorder, so no packet is traced.
	Obsv    bool
	NoSpans bool
	// Prof attributes host time per component (and, on an observed rig,
	// records a host-time series on the telemetry timeline). Kernel runs
	// are measured under Label whether or not Prof is set.
	Prof  *prof.Profiler
	Label string
	// Interval samples the fabric at this sim-time tick while a kernel
	// runs; 0 disables sampling. Needs Obsv.
	Interval units.Duration
	// Fault is a fault.ParseScenario spec played out with Seed. It wires
	// the DLL onto every cable and arms NIOS auto-failover.
	Fault string
	Seed  int64
}

// Rig is one measurement setup: an engine, an n-node ring, the ring's
// Comm (built on first use, so PIO-only runs carry no driver state), and
// the attachments chosen at construction.
type Rig struct {
	// Set is the observability attachment, nil on an unobserved rig.
	Set *obsv.Set

	eng      *sim.Engine
	sc       *tcanet.SubCluster
	c        *core.Comm
	prof     *prof.Profiler
	label    string
	interval units.Duration
}

// NewRig builds an n-node ring with the given attachments. The only error
// is a malformed fault spec; a ring that cannot be built panics (harness
// code — the CLIs validate their flags first).
func NewRig(n int, prm tcanet.Params, a Attach) (*Rig, error) {
	var inj *fault.Injector
	if a.Fault != "" {
		p, err := fault.ParseScenario(a.Fault, a.Seed)
		if err != nil {
			return nil, err
		}
		inj = fault.New(p)
	}
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, n, prm)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	r := &Rig{eng: eng, sc: sc, prof: a.Prof, label: a.Label, interval: a.Interval}
	if a.Obsv {
		if a.NoSpans {
			r.Set = &obsv.Set{Reg: obsv.NewRegistry(), Sam: obsv.NewSampler(obsv.DefaultSeriesCap)}
		} else {
			r.Set = obsv.NewSet(spanCap)
		}
		sc.Instrument(r.Set)
	}
	if inj != nil {
		inj.Instrument(r.Set)
		sc.InjectFaults(inj, pcie.DefaultDLLParams())
		sc.EnableAutoFailover()
	}
	if a.Prof != nil {
		sc.Profile(a.Prof)
		if r.Set != nil {
			r.Set.Sampler().SetComp(a.Prof.Component("obsv/sampler"))
			a.Prof.RecordHostSeries(r.Set.Sampler().Timeline(), hostSeriesCap)
		}
	}
	return r, nil
}

// newRig is a bare rig; without a fault spec NewRig cannot fail.
func newRig(n int, prm tcanet.Params) *Rig {
	r, _ := NewRig(n, prm, Attach{})
	return r
}

// pioFlag is the 8-byte PIO flag the one-way stores carry.
var pioFlag = []byte{1, 0, 0, 0, 0, 0, 0, 0}

// comm returns the ring's communicator, building it on first use.
func (r *Rig) comm() *core.Comm {
	if r.c == nil {
		c, err := core.NewComm(r.sc)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		r.c = c
	}
	return r.c
}

// Snapshot freezes the observed rig's metrics at the current sim time.
func (r *Rig) Snapshot() *obsv.Snapshot { return r.Set.Registry().Snapshot(r.eng.Now()) }

// Span is one traced transaction: its events, the reconstructed per-hop
// breakdown, and the hop total (== last event − first event).
type Span struct {
	Txn    uint64
	Events []obsv.Event
	Hops   []obsv.Hop
	Total  units.Duration
}

// Spans reconstructs the traced transactions txns from the observed rig.
func (r *Rig) Spans(txns []uint64) []Span {
	spans := make([]Span, 0, len(txns))
	for _, txn := range txns {
		events := r.Set.Recorder().TxnEvents(txn)
		hops := obsv.Breakdown(events)
		spans = append(spans, Span{Txn: txn, Events: events, Hops: hops, Total: obsv.TotalLatency(hops)})
	}
	return spans
}

// Result is one kernel run's outcome.
type Result struct {
	// Txns are the run's transactions in issue order (ping and pong legs,
	// stores, or chains); all zero on an unobserved rig.
	Txns []uint64
	// EndToEnd is the run's own latency, kick to final completion, read
	// off the simulation clock without consulting spans — so a span total
	// that matches it certifies the breakdown.
	EndToEnd units.Duration
	// Moved is the payload a DMA run carried (0 for the PIO kernels).
	Moved units.ByteSize
	// Stats is the host-side measurement of the run.
	Stats prof.RunStats
}

// run starts the sampler if attached, then kicks the kernel and drains the
// engine under the profiler's measurement.
func (r *Rig) run(kick func()) prof.RunStats {
	if r.interval > 0 {
		r.sc.StartTelemetry(r.interval)
	}
	return r.prof.Measure(r.label, r.eng, func() {
		kick()
		r.eng.Run()
	})
}

// hostBuffer allocates size bytes of node's host memory and returns its
// local bus address and its global address.
func (r *Rig) hostBuffer(node int, size units.ByteSize) (pcie.Addr, pcie.Addr, error) {
	buf, err := r.sc.Node(node).AllocDMABuffer(size)
	if err != nil {
		return 0, 0, err
	}
	g, err := r.sc.GlobalHostAddr(node, buf)
	return buf, g, err
}

// PingPong runs rounds of the §IV-B1 PIO flag ping-pong between src and
// dst: src stores a round-stamped 8-byte flag into that round's slot of
// dst's host memory, dst's poll loop answers into the same slot of src's,
// and src's poll loop launches the next round. Txns alternate ping and
// pong legs; EndToEnd runs to the last pong. After the run every slot must
// hold exactly its round's stamp — payloads parked at a dead link or
// replayed by the DLL included — and a run that stalls is an error.
func (r *Rig) PingPong(src, dst, rounds int) (*Result, error) {
	size := units.ByteSize(8 * rounds)
	dstBuf, dstG, err := r.hostBuffer(dst, size)
	if err != nil {
		return nil, err
	}
	srcBuf, srcG, err := r.hostBuffer(src, size)
	if err != nil {
		return nil, err
	}
	res := &Result{Txns: make([]uint64, 0, 2*rounds)}
	// One scratch flag per leg: a store copies its payload into the TLP.
	var ping, pong [8]byte
	var roundD, roundS int
	var done sim.Time
	r.sc.Node(dst).Poll(pcie.Range{Base: dstBuf, Size: uint64(size)}, func(sim.Time) {
		stamp(pong[:], pongTag, roundD)
		res.Txns = append(res.Txns, r.sc.Node(dst).StoreTxn(srcG+pcie.Addr(8*roundD), pong[:]))
		roundD++
	})
	r.sc.Node(src).Poll(pcie.Range{Base: srcBuf, Size: uint64(size)}, func(now sim.Time) {
		if roundS++; roundS == rounds {
			done = now
			return
		}
		stamp(ping[:], pingTag, roundS)
		res.Txns = append(res.Txns, r.sc.Node(src).StoreTxn(dstG+pcie.Addr(8*roundS), ping[:]))
	})
	start := r.eng.Now()
	res.Stats = r.run(func() {
		stamp(ping[:], pingTag, 0)
		res.Txns = append(res.Txns, r.sc.Node(src).StoreTxn(dstG, ping[:]))
	})
	if done == 0 {
		return nil, fmt.Errorf("bench: ping-pong stalled after %d/%d rounds — recovery failed", roundS, rounds)
	}
	for rd := 0; rd < rounds; rd++ {
		if err := r.checkSlot(dst, dstBuf, rd, pingTag); err != nil {
			return nil, err
		}
		if err := r.checkSlot(src, srcBuf, rd, pongTag); err != nil {
			return nil, err
		}
	}
	res.EndToEnd = done.Sub(start)
	return res, nil
}

// Leg tags of the ping-pong round stamps.
const (
	pingTag = 0xA0
	pongTag = 0xB0
)

// stamp writes the 8-byte round marker into b: a leg tag, the round
// number, and a fixed sentinel tail so corruption anywhere in the payload
// is caught.
func stamp(b []byte, tag byte, round int) {
	copy(b, []byte{tag, byte(round), byte(round >> 8), 0x5A, 0xC3, 0x3C, 0xA5, tag ^ 0xFF})
}

// checkSlot verifies that round's slot of node's buffer holds its stamp.
func (r *Rig) checkSlot(node int, buf pcie.Addr, round int, tag byte) error {
	got, err := r.sc.Node(node).ReadLocal(buf+pcie.Addr(8*round), 8)
	if err != nil {
		return err
	}
	var want [8]byte
	stamp(want[:], tag, round)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("bench: node %d round %d payload byte %d = %#x, want %#x (corrupted across failover)",
				node, round, i, got[i], want[i])
		}
	}
	return nil
}

// StoreStream issues count PIO stores of payload from src into one slot of
// dst's host memory, each launched when dst's poll loop observes the
// previous one, so every store pays the full path alone. With count 1,
// EndToEnd is the one-way store-to-poll latency.
func (r *Rig) StoreStream(src, dst, count int, payload []byte) *Result {
	size := units.ByteSize(len(payload))
	buf, g, err := r.hostBuffer(dst, size)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	res := &Result{Txns: make([]uint64, 0, count)}
	store := func() { res.Txns = append(res.Txns, r.sc.Node(src).StoreTxn(g, payload)) }
	left := count
	var last sim.Time
	r.sc.Node(dst).Poll(pcie.Range{Base: buf, Size: uint64(size)}, func(now sim.Time) {
		last = now
		if left--; left > 0 {
			store()
		}
	})
	start := r.eng.Now()
	res.Stats = r.run(store)
	if left != 0 {
		panic(fmt.Sprintf("bench: store stream node%d->node%d stalled with %d/%d stores unobserved", src, dst, left, count))
	}
	res.EndToEnd = last.Sub(start)
	return res
}

// Chain is a sequential chained-DMA workload: Chains chains of Count
// descriptors, each moving Size bytes between node Src's PEACH2 internal
// memory and Target memory on node Dst (Dst == Src is local), with the
// far-end blocks Stride bytes apart. Each chain starts from the previous
// one's completion interrupt, so chains never overlap.
type Chain struct {
	Dir      Dir
	Target   Target
	Src, Dst int
	Size     units.ByteSize
	Count    int
	Stride   units.ByteSize // 0 means Size: contiguous blocks
	Chains   int            // 0 means 1
}

// ChainDMA runs c with the paper's methodology (§IV-A): timed from before
// driver activation to the final completion interrupt. Txns holds one
// transaction per chain; Moved is the payload of all chains together.
func (r *Rig) ChainDMA(c Chain) *Result {
	remote := c.Dst != c.Src
	if c.Dir == DirRead && remote {
		panic("bench: remote DMA read is prohibited (RDMA put only, §III-F)")
	}
	// The driver's descriptor tables take host memory before the buffers.
	comm := r.comm()
	stride := c.Stride
	if stride == 0 {
		stride = c.Size
	}
	chains := max(c.Chains, 1)
	span := stride * units.ByteSize(c.Count)

	// The far end: a host DMA buffer or a pinned GPU buffer, addressed
	// through the global map when it sits on another node.
	var base pcie.Addr
	var err error
	if c.Target == TargetGPU {
		var gbuf core.GPUBuffer
		gbuf, err = comm.RegisterGPUBuffer(c.Dst, 0, span)
		base = gbuf.Bus
		if err == nil && remote {
			base, err = r.sc.GlobalGPUAddr(c.Dst, 0, gbuf.Bus)
		}
	} else {
		base, err = r.sc.Node(c.Dst).AllocDMABuffer(span)
		if err == nil && remote {
			base, err = r.sc.GlobalHostAddr(c.Dst, base)
		}
	}
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}

	descs := make([]peach2.Descriptor, c.Count)
	for i := range descs {
		far := uint64(base) + uint64(i)*uint64(stride)
		descs[i] = peach2.Descriptor{Kind: peach2.DescWrite, Len: c.Size, Src: 0, Dst: far}
		if c.Dir == DirRead {
			descs[i] = peach2.Descriptor{Kind: peach2.DescRead, Len: c.Size, Src: far, Dst: 0}
		}
	}
	if c.Dir == DirWrite {
		// Internal memory is the mandatory DMA-write source (§IV-B2);
		// the driver staged Size bytes there once.
		payload := make([]byte, c.Size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if err := r.sc.Chip(c.Src).InternalMemory().Write(0, payload); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
	}

	res := &Result{Txns: make([]uint64, 0, chains), Moved: c.Size * units.ByteSize(c.Count*chains)}
	var end sim.Time
	var issue func()
	issue = func() {
		if err := comm.StartChain(c.Src, descs, func(now sim.Time) {
			end = now
			res.Txns = append(res.Txns, r.sc.Chip(c.Src).DMAC().LastChainTxn())
			if len(res.Txns) < chains {
				issue()
			}
		}); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
	}
	start := r.eng.Now()
	res.Stats = r.run(issue)
	if len(res.Txns) != chains {
		panic(fmt.Sprintf("bench: %d/%d DMA chains completed", len(res.Txns), chains))
	}
	res.EndToEnd = end.Sub(start)
	return res
}
