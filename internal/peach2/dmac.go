package peach2

import (
	"encoding/binary"
	"fmt"

	"tca/internal/fifo"
	"tca/internal/freelist"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/units"
)

// DescKind selects a descriptor's transfer direction. The paper's current
// DMAC moves data through the chip's internal memory ("the internal memory
// of PEACH2 must be specified as the source address on DMA write and as the
// destination address on DMA read", §IV-B2); the pipelined kind is the "new
// DMAC" the paper announces as future work, reading the local source and
// writing the remote destination in one descriptor.
type DescKind uint8

// Descriptor kinds.
const (
	// DescWrite moves Len bytes from internal-memory offset Src to bus
	// address Dst (local host/GPU or a remote node's global address).
	DescWrite DescKind = iota
	// DescRead moves Len bytes from local bus address Src into
	// internal-memory offset Dst.
	DescRead
	// DescPipelined moves Len bytes from local bus address Src directly
	// to (usually remote) bus address Dst, overlapping the read and
	// write phases — the paper's future-work DMAC (§IV-B2).
	DescPipelined
)

// String names the kind.
func (k DescKind) String() string {
	switch k {
	case DescWrite:
		return "write"
	case DescRead:
		return "read"
	case DescPipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("DescKind(%d)", int(k))
	}
}

// Descriptor is one entry of a chaining-DMA descriptor table (§III-F2).
type Descriptor struct {
	Kind DescKind
	Len  units.ByteSize
	Src  uint64
	Dst  uint64
}

// DescriptorBytes is the on-wire table entry size.
const DescriptorBytes = 32

// Encode serializes the descriptor into its 32-byte table entry.
func (d Descriptor) Encode() [DescriptorBytes]byte {
	var b [DescriptorBytes]byte
	b[0] = byte(d.Kind)
	binary.LittleEndian.PutUint32(b[4:], uint32(d.Len))
	binary.LittleEndian.PutUint64(b[8:], d.Src)
	binary.LittleEndian.PutUint64(b[16:], d.Dst)
	return b
}

// DecodeDescriptor parses one 32-byte table entry.
func DecodeDescriptor(b []byte) (Descriptor, error) {
	if len(b) < DescriptorBytes {
		return Descriptor{}, fmt.Errorf("peach2: short descriptor: %d bytes", len(b))
	}
	d := Descriptor{
		Kind: DescKind(b[0]),
		Len:  units.ByteSize(binary.LittleEndian.Uint32(b[4:])),
		Src:  binary.LittleEndian.Uint64(b[8:]),
		Dst:  binary.LittleEndian.Uint64(b[16:]),
	}
	if d.Kind > DescPipelined {
		return Descriptor{}, fmt.Errorf("peach2: unknown descriptor kind %d", b[0])
	}
	if d.Len <= 0 {
		return Descriptor{}, fmt.Errorf("peach2: descriptor with length %d", d.Len)
	}
	return d, nil
}

// EncodeTable serializes a chain into the byte image the driver places in
// host memory.
func EncodeTable(descs []Descriptor) []byte {
	out := make([]byte, 0, len(descs)*DescriptorBytes)
	for _, d := range descs {
		e := d.Encode()
		out = append(out, e[:]...)
	}
	return out
}

// dmacState tracks the controller's phase.
type dmacState int

const (
	dmacIdle dmacState = iota
	dmacFetching
	dmacRunning
)

// DMAC is the chaining DMA controller: "multiple DMA requests as the DMA
// descriptors are registered in the descriptor table in advance, and DMA
// transactions are then operated automatically according to the DMA
// descriptors by hardwired logic once the DMA descriptor table is
// activated" (§III-F2).
type DMAC struct {
	chip *Chip
	// comp is the DMAC's host-time attribution tag (0 when unprofiled).
	comp sim.CompID
	tags *pcie.TagTable
	// issue paces outbound write TLPs; readIssue paces outbound read
	// requests independently, so the pipelined DMAC really does operate
	// "both the read request ... and the write request ... simultaneously
	// in a pipeline manner" (§IV-B2).
	issue     sim.Serializer
	readIssue sim.Serializer
	// issueQ holds the write TLPs whose issue slots are reserved, run by
	// run in slot order; issueAct is the one event that issues them.
	issueQ   fifo.Queue[issueRun]
	issueAct issueAction

	state dmacState

	// Current chain.
	descs           []Descriptor
	totalWriteTLPs  int
	writeTLPsIssued int
	issuesPending   int
	// readQueue holds the read runs not yet fully requested; readsQueued
	// counts their requests. readFree recycles the in-flight read records.
	readQueue    fifo.Queue[readRun]
	readsQueued  int
	readsPending int
	readFree     freelist.List[readRec]
	timerFree    freelist.List[readTimer] // armed completion timeouts
	allGenerated bool
	waitAck      bool
	ackSeen      bool
	// table receives the descriptor-table fetch; fetchLeft counts its
	// requests still outstanding. The buffer is reused chain to chain.
	table     []byte
	fetchLeft int

	// Fault recovery. chainGen invalidates every callback scheduled for a
	// chain that has since been aborted (it only advances on doorbell and
	// failChain, so healthy runs never observe a mismatch). stuck marks a
	// chain with a wedged descriptor: it can never complete and must be
	// reaped by the watchdog.
	chainGen uint64
	lastErr  error
	stuck    bool

	// Observability. txn is the running chain's transaction ID (0 when
	// untraced); lastTxn survives until the next doorbell so the driver's
	// IRQ handler can close the span after the chain completed. All metric
	// handles are nil when uninstrumented.
	txn        uint64
	lastTxn    uint64
	chainStart sim.Time
	// busyAccum is the cumulative busy time of completed chains; the
	// telemetry probe adds the running chain's partial time on top, so
	// the windowed busy fraction is exact at any tick.
	busyAccum units.Duration
	mChains   *obsv.Counter
	mTLPs     *obsv.Counter
	mReads    *obsv.Counter
	mBusyPS   *obsv.Counter
	mErrs     *obsv.Counter
	mQueue    *obsv.Gauge
	mChainLat *obsv.Histogram
}

// profile registers the DMAC as its own component so chain and TLP-issue
// events are attributed separately from the chip's router.
func (d *DMAC) profile(p *prof.Profiler) {
	d.comp = p.Component(d.chip.name + "/dmac")
}

// instrument registers the DMAC's metrics under "<chip>/dmac".
func (d *DMAC) instrument(set *obsv.Set) {
	reg := set.Registry()
	name := d.chip.name + "/dmac"
	d.mChains = reg.Counter("dma_chains", name)
	d.mTLPs = reg.Counter("dma_write_tlps", name)
	d.mReads = reg.Counter("dma_reads_sent", name)
	d.mBusyPS = reg.Counter("dma_busy_ps", name)
	d.mErrs = reg.Counter("dma_chain_errors", name)
	d.mQueue = reg.Gauge("dma_read_queue_depth", name)
	d.mChainLat = reg.Histogram("dma_chain_latency", name, nil)
	d.registerProbes(set.Sampler(), name)
}

// registerProbes wires the DMAC's telemetry: windowed busy fraction, read
// queue depth, and outstanding read requests.
func (d *DMAC) registerProbes(sam *obsv.Sampler, name string) {
	if sam == nil {
		return
	}
	var lastBusy units.Duration
	sam.Register("dma_busy", name, "", "%", func(now sim.Time, elapsed units.Duration) float64 {
		busy := d.busyAccum
		if d.state != dmacIdle {
			busy += now.Sub(d.chainStart)
		}
		delta := busy - lastBusy
		lastBusy = busy
		if elapsed <= 0 {
			return 0
		}
		return 100 * float64(delta) / float64(elapsed)
	})
	sam.Register("dma_read_queue", name, "", "reqs", func(sim.Time, units.Duration) float64 {
		return float64(d.readsQueued)
	})
	sam.Register("dma_reads_inflight", name, "", "reads", func(sim.Time, units.Duration) float64 {
		return float64(d.readsPending)
	})
}

// LastChainTxn reports the transaction ID of the most recently completed
// chain (0 when untraced) — how the driver's IRQ handler finds the span to
// close with StageChainDone.
func (d *DMAC) LastChainTxn() uint64 { return d.lastTxn }

// readKind says where a DMA read's bytes go.
type readKind uint8

const (
	// readFetch copies them into the descriptor table.
	readFetch readKind = iota
	// readDesc writes them to internal memory (DescRead).
	readDesc
	// readPipelined issues them straight out as write TLPs (DescPipelined).
	readPipelined
)

// readRun is a stretch of read requests generated together — a table
// fetch, one DescRead or one DescPipelined — that pumpReads requests
// chunk by chunk as tags free up. The fields describe the run's next
// request; advance moves them to the one after.
type readRun struct {
	kind   readKind
	addr   pcie.Addr      // source of the next request
	left   units.ByteSize // bytes not yet requested
	maxReq units.ByteSize
	// dst is where the next request's bytes go: a table offset, an
	// internal-memory offset or, when pipelined, a destination bus address.
	dst        uint64
	maxPayload units.ByteSize // pipelined write TLP size
	relaxed    bool           // pipelined writes target a GPU
	// tagWait marks that a queue-enter wait event was recorded for the
	// next request when the tag table starved, so issuing it pairs it
	// with the matching queue-exit.
	tagWait bool
}

// advance moves the run past a request of n bytes.
func (r *readRun) advance(n units.ByteSize) {
	r.addr += pcie.Addr(n)
	r.dst += uint64(n)
	r.left -= n
	r.tagWait = false
}

// readRec is one DMA read from its tag allocation to its last completion.
// The pooled record is both the read's issue event (a sim.Action) and its
// completion sink (a pcie.ReadSink), so a read allocates no closures.
type readRec struct {
	d    *DMAC
	kind readKind
	addr pcie.Addr
	n    units.ByteSize
	last bool // final request of its run
	tag  uint8
	txn  uint64
	// gen is chainGen when the read was requested.
	gen        uint64
	dst        uint64
	maxPayload units.ByteSize
	relaxed    bool
	// use counts the reads the record has completed. It survives
	// recycling, so a completion timeout armed for an earlier read sees
	// it moved and stands down.
	use uint64
}

// RunAction implements sim.Action: the request leaves at the end of its
// issue slot.
func (r *readRec) RunAction(now sim.Time) {
	d := r.d
	if r.gen != d.chainGen {
		return // chain aborted since this slot was reserved
	}
	d.chip.ports[PortN].Send(now, r.request())
	d.armReadTimeout(r, r.use, 0)
}

// request builds the record's MRd from the chip's pool; the completer
// releases it.
func (r *readRec) request() *pcie.TLP {
	t := r.d.chip.pool.Get()
	t.Kind = pcie.MRd
	t.Addr = r.addr
	t.ReadLen = r.n
	t.Tag = r.tag
	t.Requester = r.d.chip.id
	t.Txn = r.txn
	t.Last = r.last
	return t
}

// ReadDone implements pcie.ReadSink. Fetched and DescRead bytes are used
// up here, so they may live in the tag's reused buffer; pipelined bytes
// are the record's own buffer and move on with the issue run.
func (r *readRec) ReadDone(data []byte) {
	d := r.d
	d.readsPending--
	switch r.kind {
	case readFetch:
		copy(d.table[r.dst:], data)
		d.fetchLeft--
	case readDesc:
		if err := d.chip.intMem.Write(r.dst, data); err != nil {
			panic(fmt.Sprintf("peach2 %s: DMA read sink: %v", d.chip.name, err))
		}
	case readPipelined:
		d.queueIssue(issueRun{addr: pcie.Addr(r.dst), data: data, left: units.ByteSize(len(data)),
			maxPayload: r.maxPayload, relaxed: r.relaxed})
	}
	fetched := r.kind == readFetch && d.fetchLeft == 0
	use := r.use + 1
	d.readFree.Put(r)
	r.use = use
	if fetched {
		d.parseAndRun(len(d.table) / DescriptorBytes)
	}
	d.pumpReads()
	d.maybeComplete()
}

func newDMAC(c *Chip) *DMAC {
	d := &DMAC{chip: c, tags: pcie.NewTagTable(c.params.DMA.OutstandingReads)}
	d.issueAct.d = d
	return d
}

// Busy reports whether a chain is in flight.
func (d *DMAC) Busy() bool { return d.state != dmacIdle }

// OutstandingReads reports reads issued but not yet completed or
// cancelled. At quiesce this must be zero — the invariant checker audits
// it to prove no read was silently abandoned with its tag still held.
func (d *DMAC) OutstandingReads() int { return d.tags.Outstanding() }

func (d *DMAC) status() int {
	if d.Busy() {
		return 1
	}
	return 0
}

// start is the doorbell: fetch count descriptors from tableAddr in host
// memory, then execute them. Reached through a store to RegDMACount.
func (d *DMAC) start(now sim.Time, tableAddr pcie.Addr, count int) {
	if d.Busy() {
		panic(fmt.Sprintf("peach2 %s: doorbell while DMAC busy", d.chip.name))
	}
	if count <= 0 {
		panic(fmt.Sprintf("peach2 %s: doorbell with count %d", d.chip.name, count))
	}
	d.resetChain()
	d.state = dmacFetching
	d.chainGen++
	d.armWatchdog()
	d.beginTxn(now, tableAddr)
	total := count * DescriptorBytes
	if cap(d.table) < total {
		d.table = make([]byte, total)
	}
	d.table = d.table[:total]
	d.fetchLeft = d.enqueueRead(readRun{kind: readFetch, addr: tableAddr,
		left: units.ByteSize(total), maxReq: d.chip.params.DMA.FetchChunk})
	d.pumpReads()
}

// StartImmediate executes a single descriptor without a table fetch — the
// register-written "DMA function without a descriptor ... desired for
// relatively small amounts of data" (§IV-A1). Used by the ablation bench.
func (d *DMAC) StartImmediate(now sim.Time, desc Descriptor) {
	if d.Busy() {
		panic(fmt.Sprintf("peach2 %s: StartImmediate while DMAC busy", d.chip.name))
	}
	d.resetChain()
	d.state = dmacRunning
	d.chainGen++
	d.armWatchdog()
	d.beginTxn(now, pcie.Addr(desc.Dst))
	d.runChain([]Descriptor{desc})
}

// armWatchdog schedules the whole-chain timeout. Gated on fault injection:
// a perfect fabric never needs it, and not scheduling the event keeps
// fault-free runs on the exact pre-fault schedule.
func (d *DMAC) armWatchdog() {
	if !d.chip.faults.Enabled() {
		return
	}
	gen := d.chainGen
	d.chip.eng.AfterComp(d.comp, d.chip.params.DMA.chainTimeout(), func() {
		if gen != d.chainGen || d.state == dmacIdle {
			return
		}
		d.failChain(fmt.Errorf("chain watchdog fired after %v", d.chip.params.DMA.chainTimeout()))
	})
}

// beginTxn opens a new traced chain: allocates its transaction ID and
// records the doorbell span event.
func (d *DMAC) beginTxn(now sim.Time, addr pcie.Addr) {
	d.chainStart = now
	d.txn = d.chip.rec.NextTxn()
	if d.txn != 0 {
		d.chip.rec.Record(obsv.Event{At: now, Txn: d.txn, Stage: obsv.StageDoorbell,
			Where: d.chip.name, Addr: uint64(addr)})
	}
}

func (d *DMAC) resetChain() {
	d.descs = nil
	d.totalWriteTLPs = 0
	d.writeTLPsIssued = 0
	d.issuesPending = 0
	d.readQueue.Clear()
	d.readsQueued = 0
	d.readsPending = 0
	d.allGenerated = false
	d.waitAck = false
	d.ackSeen = false
	d.lastErr = nil
	d.stuck = false
}

// parseAndRun decodes the fetched table's count descriptors and runs them.
func (d *DMAC) parseAndRun(count int) {
	descs := make([]Descriptor, 0, count)
	for i := 0; i < count; i++ {
		desc, err := DecodeDescriptor(d.table[i*DescriptorBytes:])
		if err != nil {
			panic(fmt.Sprintf("peach2 %s: descriptor %d: %v", d.chip.name, i, err))
		}
		descs = append(descs, desc)
	}
	if d.txn != 0 {
		d.chip.rec.Record(obsv.Event{At: d.chip.eng.Now(), Txn: d.txn,
			Stage: obsv.StageDMAFetch, Where: d.chip.name,
			Note: fmt.Sprintf("%d descriptors", count)})
	}
	d.state = dmacRunning
	d.runChain(descs)
}

// splitCount reports how many write TLPs SplitWrite produces for (addr, n)
// without materializing them.
func splitCount(addr pcie.Addr, n units.ByteSize, maxPayload units.ByteSize) int {
	count := 0
	for r := (issueRun{addr: addr, left: n, maxPayload: maxPayload}); r.left > 0; count++ {
		r.advance(r.next())
	}
	return count
}

// runChain generates the chain's work. Write TLPs pass through the issue
// serializer (one per IssueInterval — the pipeline bound behind the "93% of
// theoretical" peak); reads are throttled by the tag table.
func (d *DMAC) runChain(descs []Descriptor) {
	d.descs = descs
	maxPayload := pcie.DefaultMaxPayload
	if d.chip.ports[PortN].Connected() {
		maxPayload = d.chip.ports[PortN].Link().Params().MaxPayload
	}

	// Injected stuck descriptors: the hardwired sequencer hangs on the
	// wedged entry, so its work is never generated and the chain can only
	// be reaped by the watchdog.
	var stuck []bool
	if d.chip.faults.Enabled() {
		stuck = make([]bool, len(descs))
		for i := range descs {
			if d.chip.faults.StuckDescriptor(i) {
				stuck[i] = true
				d.stuck = true
			}
		}
	}

	// Count all write TLPs up front so the final one can carry the
	// chain's Last/Flush marking at issue time.
	for i, desc := range descs {
		if stuck != nil && stuck[i] {
			continue
		}
		switch desc.Kind {
		case DescWrite:
			d.totalWriteTLPs += splitCount(pcie.Addr(desc.Dst), desc.Len, maxPayload)
		case DescPipelined:
			for r := d.pipelinedRun(desc, maxPayload); r.left > 0; {
				n := pcie.ReadChunk(r.addr, r.left, r.maxReq)
				d.totalWriteTLPs += splitCount(pcie.Addr(r.dst), n, maxPayload)
				r.advance(n)
			}
		}
	}
	d.waitAck = d.chainNeedsFlush(descs)

	for i, desc := range descs {
		if stuck != nil && stuck[i] {
			continue
		}
		switch desc.Kind {
		case DescWrite:
			d.generateWrite(desc, maxPayload)
		case DescRead:
			d.generateRead(desc)
		case DescPipelined:
			d.generatePipelined(desc, maxPayload)
		}
	}
	d.allGenerated = true
	d.pumpReads()
	d.maybeComplete()
}

// chainNeedsFlush decides whether the chain must wait for a remote
// delivery acknowledgement: yes when the final descriptor writes to another
// node's host memory or internal buffer (strictly ordered sinks), no for
// local targets and for remote GPU memory (deep request queue, §IV-B2).
func (d *DMAC) chainNeedsFlush(descs []Descriptor) bool {
	last := descs[len(descs)-1]
	if last.Kind == DescRead {
		return false
	}
	dst := pcie.Addr(last.Dst)
	plan := d.chip.plan
	if !plan.TCARegion.Contains(dst) || plan.GlobalWindow.Contains(dst) {
		return false // local target
	}
	if plan.ClassOf == nil {
		panic(fmt.Sprintf("peach2 %s: remote DMA needs plan.ClassOf", d.chip.name))
	}
	class, ok := plan.ClassOf(dst)
	if !ok {
		panic(fmt.Sprintf("peach2 %s: remote address %v has no class", d.chip.name, dst))
	}
	return class != ClassGPU
}

// classOfGlobal labels a global destination, defaulting locals to host.
func (d *DMAC) classOfGlobal(a pcie.Addr) BlockClass {
	if d.chip.plan.ClassOf != nil && d.chip.plan.TCARegion.Contains(a) {
		if cl, ok := d.chip.plan.ClassOf(a); ok {
			return cl
		}
	}
	return ClassHost
}

// generateWrite queues a DescWrite's TLPs: data flows from internal memory
// to the destination, read at issue time.
func (d *DMAC) generateWrite(desc Descriptor, maxPayload units.ByteSize) {
	d.queueIssue(issueRun{
		addr:       pcie.Addr(desc.Dst),
		src:        desc.Src,
		left:       desc.Len,
		maxPayload: maxPayload,
		relaxed:    d.classOfGlobal(pcie.Addr(desc.Dst)) == ClassGPU,
	})
}

// issueSlotDur is the pipeline occupancy of one write TLP: the DMAC issues
// at most one TLP per IssueInterval, and the TX FIFO backpressures it to
// the wire rate when payloads are large enough that serialization is the
// slower of the two.
func (d *DMAC) issueSlotDur(payload units.ByteSize) units.Duration {
	dur := d.chip.params.DMA.IssueInterval
	wire := units.TimeToSend(payload+pcie.TLPOverhead, d.chip.params.LinkConfig.RawBandwidth())
	if wire > dur {
		dur = wire
	}
	return dur
}

// issueRun is a stretch of write TLPs generated together — one DescWrite,
// or one read completion of a DescPipelined — that issue back to back. The
// fields describe the run's next TLP; advance moves them to the one after.
type issueRun struct {
	addr       pcie.Addr      // destination of the next TLP
	src        uint64         // internal-memory offset of its payload (DescWrite)
	data       []byte         // payload still in hand (DescPipelined), else nil
	left       units.ByteSize // bytes not yet issued
	maxPayload units.ByteSize
	relaxed    bool
	// gen is chainGen when the run was generated: a run of an aborted
	// chain keeps its slots but issues nothing.
	gen        uint64
	reservedAt sim.Time
	slot       sim.Time // start of the next TLP's issue slot
	seq        uint64   // tie-break seq of the next TLP's issue event
}

// next returns the payload length of the run's next write TLP: at most
// maxPayload of the bytes left, never crossing a 4 KiB boundary — the
// splitting rule of pcie.SplitWrite.
func (r *issueRun) next() units.ByteSize {
	l := min(r.maxPayload, r.left)
	if room := units.ByteSize(4096 - uint64(r.addr)%4096); l > room {
		l = room
	}
	return l
}

// advance moves the run past a TLP of n bytes.
func (r *issueRun) advance(n units.ByteSize) {
	r.addr += pcie.Addr(n)
	r.src += uint64(n)
	r.left -= n
	if r.data != nil {
		r.data = r.data[n:]
	}
}

// queueIssue reserves an issue slot and a tie-break seq for every write
// TLP of r, back to back and in TLP order — the reservations one event per
// TLP would have made — and queues the run for issueAct. Slots and seqs
// both only grow, so the queue is in (at, seq) order and only its head TLP
// needs an event on the engine heap.
func (d *DMAC) queueIssue(r issueRun) {
	r.gen = d.chainGen
	r.reservedAt = d.chip.eng.Now()
	n := 0
	for w := r; w.left > 0; n++ {
		l := w.next()
		slot := d.issue.Reserve(r.reservedAt, d.issueSlotDur(l))
		if n == 0 {
			r.slot = slot
		}
		w.advance(l)
	}
	d.issuesPending += n
	r.seq = d.chip.eng.ReserveSeqs(n)
	d.issueQ.Push(r)
	if d.issueQ.Len() == 1 {
		d.armIssue()
	}
}

// armIssue schedules issueAct for the head run's next TLP, at the end of
// its issue slot.
func (d *DMAC) armIssue() {
	r := d.issueQ.At(0)
	d.chip.eng.AtActionSeq(d.comp, r.slot.Add(d.issueSlotDur(r.next())), r.seq, &d.issueAct)
}

// issueAction is the DMAC's one issue event. Each run issues the head TLP
// of the issue queue and re-arms for the next.
type issueAction struct{ d *DMAC }

// RunAction implements sim.Action.
func (a *issueAction) RunAction(now sim.Time) {
	d := a.d
	r := d.issueQ.At(0)
	cur := *r
	n := cur.next()
	r.advance(n)
	r.slot = now // the next TLP's slot opens as this one's closes
	r.seq++
	if r.left == 0 {
		d.issueQ.Pop()
	}
	if d.issueQ.Len() > 0 {
		d.armIssue()
	}
	if cur.gen != d.chainGen {
		return // chain aborted since this slot was reserved
	}
	var data []byte
	if cur.data != nil {
		data = cur.data[:n:n]
	} else {
		var err error
		if data, err = d.chip.intMem.ReadBytes(cur.src, n); err != nil {
			panic(fmt.Sprintf("peach2 %s: DMA write source: %v", d.chip.name, err))
		}
	}
	d.writeTLPsIssued++
	d.issuesPending--
	d.mTLPs.Inc()
	final := d.writeTLPsIssued == d.totalWriteTLPs
	d.recordIssueWait(final, cur.reservedAt, cur.slot)
	tlp := d.chip.pool.Get()
	tlp.Kind = pcie.MWr
	tlp.Addr = cur.addr
	tlp.Data = data
	tlp.Requester = d.chip.id
	tlp.Relaxed = cur.relaxed
	tlp.Last = final
	tlp.Flush = final && d.waitAck
	tlp.Txn = d.txn
	d.recordIssue(tlp, final)
	d.sendFromDMAC(tlp)
	d.maybeComplete()
}

// recordIssueWait spans the issue-pipeline wait of a traced chain's final
// write TLP: the time between reserving the issue slot and the slot
// opening is chain-serialization — the TLP paced behind its predecessors
// at one per IssueInterval. Only the final TLP records it (matching
// recordIssue) so large chains don't flood the ring.
func (d *DMAC) recordIssueWait(final bool, reservedAt, slot sim.Time) {
	if d.txn == 0 || !final || slot <= reservedAt {
		return
	}
	d.chip.rec.Record(obsv.Event{At: reservedAt, Txn: d.txn, Stage: obsv.StageQueueEnter,
		Where: d.chip.name, Cause: obsv.CauseChainSerialization})
	d.chip.rec.Record(obsv.Event{At: slot, Txn: d.txn, Stage: obsv.StageQueueExit,
		Where: d.chip.name, Cause: obsv.CauseChainSerialization})
}

// recordIssue spans the final write TLP of a traced chain — the one whose
// delivery the completion protocol tracks. Per-TLP issue events would flood
// the ring for large chains without sharpening the breakdown.
func (d *DMAC) recordIssue(t *pcie.TLP, final bool) {
	if d.txn == 0 || !final {
		return
	}
	d.chip.rec.Record(obsv.Event{At: d.chip.eng.Now(), Txn: d.txn,
		Stage: obsv.StageDMAIssue, Where: d.chip.name, Addr: uint64(t.Addr),
		Note: fmt.Sprintf("tlp %d/%d", d.writeTLPsIssued, d.totalWriteTLPs)})
}

// sendFromDMAC routes a DMAC-originated packet out of the chip.
func (d *DMAC) sendFromDMAC(t *pcie.TLP) {
	out, err := d.chip.route(t.Addr)
	if err != nil {
		panic(fmt.Sprintf("peach2 %s: DMA issue: %v", d.chip.name, err))
	}
	switch out {
	case PortInternal:
		// A self-targeted DMA write (diagnostics): terminate directly.
		d.chip.acceptInternalWrite(d.chip.eng.Now(), t)
	case PortN:
		local, _, conv := d.chip.convertN(t.Addr)
		if conv {
			d.chip.cm.converted.Inc()
		}
		out := t
		if !t.Pooled() {
			// An unpooled packet may be retained by its creator; the
			// converted address must live in a copy.
			c := *t
			out = &c
		}
		out.Addr = local
		d.chip.cm.tlpsOut[PortN].Inc()
		d.chip.cm.bytesOut[PortN].Add(uint64(out.WireBytes()))
		d.chip.ports[PortN].Send(d.chip.eng.Now(), out)
	default:
		if d.chip.portDead[out] {
			d.chip.parkTLP(d.chip.eng.Now(), t)
			return
		}
		d.chip.cm.tlpsOut[out].Inc()
		d.chip.cm.bytesOut[out].Add(uint64(t.WireBytes()))
		d.chip.ports[out].Send(d.chip.eng.Now(), t)
	}
}

// generateRead schedules a DescRead: local bus → internal memory.
func (d *DMAC) generateRead(desc Descriptor) {
	d.enqueueRead(readRun{kind: readDesc, addr: pcie.Addr(desc.Src), left: desc.Len,
		maxReq: d.chip.params.DMA.MaxReadRequest, dst: desc.Dst})
}

// generatePipelined schedules a DescPipelined: as each read completion
// arrives from the local source, its bytes stream straight out as write
// TLPs — no staging in internal memory (§IV-B2's "new DMAC").
func (d *DMAC) generatePipelined(desc Descriptor, maxPayload units.ByteSize) {
	d.enqueueRead(d.pipelinedRun(desc, maxPayload))
}

// pipelinedRun is the read run of a DescPipelined.
func (d *DMAC) pipelinedRun(desc Descriptor, maxPayload units.ByteSize) readRun {
	return readRun{kind: readPipelined, addr: pcie.Addr(desc.Src), left: desc.Len,
		maxReq: d.chip.params.DMA.MaxReadRequest, dst: desc.Dst, maxPayload: maxPayload,
		relaxed: d.classOfGlobal(pcie.Addr(desc.Dst)) == ClassGPU}
}

// enqueueRead queues a read run and returns its request count; pumpReads
// issues the requests as tags free up.
func (d *DMAC) enqueueRead(r readRun) int {
	n := 0
	for w := r; w.left > 0; n++ {
		w.advance(pcie.ReadChunk(w.addr, w.left, w.maxReq))
	}
	d.readQueue.Push(r)
	d.readsQueued += n
	d.mQueue.Set(int64(d.readsQueued))
	return n
}

// pumpReads issues queued reads while tags are available. Reads verify that
// the target is local: the DMAC may only read through Port N (§III-F).
func (d *DMAC) pumpReads() {
	for d.readQueue.Len() > 0 {
		run := d.readQueue.At(0)
		out, err := d.chip.route(run.addr)
		if err != nil {
			panic(fmt.Sprintf("peach2 %s: DMA read: %v", d.chip.name, err))
		}
		if out != PortN {
			panic(fmt.Sprintf("peach2 %s: DMA read from %v is not local — RDMA put only", d.chip.name, run.addr))
		}
		if d.tags.Full() {
			// Tag-starved; retry on next completion. Mark the wait once so
			// the traced chain attributes the stall to tag exhaustion.
			if d.txn != 0 && !run.tagWait {
				run.tagWait = true
				d.chip.rec.Record(obsv.Event{At: d.chip.eng.Now(), Txn: d.txn,
					Stage: obsv.StageQueueEnter, Where: d.chip.name,
					Addr: uint64(run.addr), Cause: obsv.CauseTagWait})
			}
			return
		}
		n := pcie.ReadChunk(run.addr, run.left, run.maxReq)
		r := d.readFree.Get()
		r.d, r.kind, r.addr, r.n, r.last = d, run.kind, run.addr, n, n == run.left
		r.dst, r.maxPayload, r.relaxed = run.dst, run.maxPayload, run.relaxed
		if run.kind == readPipelined {
			// The bytes move on with the issue run: they need their own
			// buffer, not the tag's reused one.
			r.tag, _ = d.tags.AllocInto(make([]byte, n), r)
		} else {
			r.tag, _ = d.tags.Alloc(n, r)
		}
		tagWait := run.tagWait
		run.advance(n)
		if run.left == 0 {
			d.readQueue.Pop()
		}
		d.readsQueued--
		d.mQueue.Set(int64(d.readsQueued))
		d.readsPending++
		d.mReads.Inc()
		if tagWait && d.txn != 0 {
			d.chip.rec.Record(obsv.Event{At: d.chip.eng.Now(), Txn: d.txn,
				Stage: obsv.StageQueueExit, Where: d.chip.name,
				Addr: uint64(r.addr), Cause: obsv.CauseTagWait})
		}
		r.txn = d.txn
		r.gen = d.chainGen
		reservedAt := d.chip.eng.Now()
		slot := d.readIssue.Reserve(reservedAt, d.chip.params.DMA.IssueInterval)
		if d.txn != 0 && slot > reservedAt {
			// Paced behind earlier read requests in the issue pipeline.
			d.chip.rec.Record(obsv.Event{At: reservedAt, Txn: d.txn,
				Stage: obsv.StageQueueEnter, Where: d.chip.name,
				Addr: uint64(r.addr), Cause: obsv.CauseChainSerialization})
			d.chip.rec.Record(obsv.Event{At: slot, Txn: d.txn,
				Stage: obsv.StageQueueExit, Where: d.chip.name,
				Addr: uint64(r.addr), Cause: obsv.CauseChainSerialization})
		}
		d.chip.eng.AtAction(d.comp, slot.Add(d.chip.params.DMA.IssueInterval), r)
	}
}

// armReadTimeout schedules the completion timeout for r's outstanding
// read, its use-th: each expiry retransmits the request with exponential
// backoff until the retry budget runs out, then the whole chain is
// aborted with an error. Gated on fault injection so fault-free runs
// schedule nothing.
func (d *DMAC) armReadTimeout(r *readRec, use uint64, attempt int) {
	if !d.chip.faults.Enabled() {
		return
	}
	tm := d.timerFree.Get()
	*tm = readTimer{d: d, r: r, use: use, gen: r.gen, attempt: attempt}
	d.chip.eng.AfterAction(d.comp, DefaultCplTimeout<<uint(attempt), tm)
}

// readTimer is one armed completion timeout. Its read record may be
// recycled, and reused by a later read, before the timer fires, so the
// timer keeps its own copies of the read's use count, chain generation
// and retry attempt: a moved use count means the read completed, and the
// timer stands down without reading anything else from the record.
type readTimer struct {
	d       *DMAC
	r       *readRec
	use     uint64
	gen     uint64
	attempt int
}

// RunAction implements sim.Action: the timeout expires, and the read is
// retransmitted or, past the retry budget, its chain aborted. The timer
// is recycled first, so re-arming reuses it.
func (tm *readTimer) RunAction(now sim.Time) {
	d, r, x := tm.d, tm.r, *tm
	d.timerFree.Put(tm)
	if r.use != x.use || x.gen != d.chainGen || d.state == dmacIdle {
		return
	}
	if x.attempt >= DefaultCplRetries {
		d.failChain(fmt.Errorf("read %v (tag %d) lost: no completion after %d retries", r.addr, r.tag, x.attempt))
		return
	}
	d.chip.faults.NoteReadRetry()
	if d.txn != 0 {
		d.chip.rec.Record(obsv.Event{At: now, Txn: d.txn,
			Stage: obsv.StageReadRetry, Where: d.chip.name, Addr: uint64(r.addr),
			Note: fmt.Sprintf("attempt %d", x.attempt+1)})
	}
	// A retry is a logically new request, not the old packet moving
	// again: a fresh packet has no conservation-ledger identity, so the
	// fabric births it instead of flagging a duplicate.
	d.chip.ports[PortN].Send(now, r.request())
	d.armReadTimeout(r, x.use, x.attempt+1)
}

// failChain aborts the running chain: outstanding reads are cancelled,
// queued work is discarded, stale callbacks are invalidated through
// chainGen, and the error is surfaced to the driver (LastChainError, the
// status register) alongside the completion IRQ — instead of hanging the
// DMAC forever as the paper's error-free model would.
func (d *DMAC) failChain(err error) {
	if d.state == dmacIdle {
		return
	}
	d.chip.faults.NoteChainError()
	d.mErrs.Inc()
	d.lastErr = fmt.Errorf("peach2 %s: %v", d.chip.name, err)
	if d.txn != 0 {
		d.chip.rec.Record(obsv.Event{At: d.chip.eng.Now(), Txn: d.txn,
			Stage: obsv.StageChainError, Where: d.chip.name, Note: err.Error()})
	}
	d.tags.CancelAll()
	d.readQueue.Clear()
	d.readsQueued = 0
	d.mQueue.Set(0)
	d.readsPending = 0
	d.issuesPending = 0
	d.state = dmacIdle
	d.chainGen++
	busy := d.chip.eng.Now().Sub(d.chainStart)
	d.busyAccum += busy
	d.mBusyPS.Add(uint64(busy))
	d.lastTxn = d.txn
	d.txn = 0
	d.chip.raiseIRQ(d.lastTxn)
}

// LastChainError reports the most recent chain's error (nil after a clean
// completion — resetChain clears it at the next doorbell).
func (d *DMAC) LastChainError() error { return d.lastErr }

// handleCompletion feeds a completion arriving on Port N into the tag
// table. Under fault injection a completion can legitimately miss — its
// read was cancelled by failChain, or a retry raced the original reply —
// so mismatches are dropped instead of treated as fabric bugs.
func (d *DMAC) handleCompletion(t *pcie.TLP) {
	err := d.tags.HandleCompletion(t)
	if d.chip.led != nil && t.LID != 0 {
		now := d.chip.eng.Now()
		if err != nil {
			d.chip.led.Dropped(now, t.LID, d.chip.name, "stale completion after chain abort")
		} else {
			d.chip.led.Delivered(now, t.LID, uint64(t.Addr), t.Data, d.chip.name)
		}
	}
	// The completion terminated here either way: release before any error
	// handling so the stale-completion path cannot leak pooled packets.
	t.Release()
	if err != nil {
		if d.chip.faults.Enabled() {
			return
		}
		panic(fmt.Sprintf("peach2 %s: %v", d.chip.name, err))
	}
}

// handleAck records the flush acknowledgement from the remote chip.
func (d *DMAC) handleAck(now sim.Time) {
	d.ackSeen = true
	d.maybeComplete()
}

// maybeComplete finishes the chain once every TLP has issued, every read
// has returned, and any required flush ack has arrived; then the completion
// interrupt fires (§IV-A: the clock is read "in the interrupt handler
// generated by the completion from the DMAC").
func (d *DMAC) maybeComplete() {
	if d.state != dmacRunning || !d.allGenerated {
		return
	}
	if d.stuck {
		return // a wedged descriptor never finishes; the watchdog reaps it
	}
	if d.issuesPending > 0 || d.readsPending > 0 || d.readsQueued > 0 {
		return
	}
	if d.waitAck && !d.ackSeen {
		return
	}
	d.state = dmacIdle
	d.mChains.Inc()
	busy := d.chip.eng.Now().Sub(d.chainStart)
	d.busyAccum += busy
	d.mBusyPS.Add(uint64(busy))
	d.mChainLat.Observe(busy)
	d.lastTxn = d.txn
	d.txn = 0
	d.chip.raiseIRQ(d.lastTxn)
}
