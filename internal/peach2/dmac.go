package peach2

import (
	"encoding/binary"
	"fmt"

	"tca/internal/fifo"
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

	state dmacState

	// Current chain.
	descs           []Descriptor
	totalWriteTLPs  int
	writeTLPsIssued int
	issuesPending   int
	readQueue       fifo.Queue[readReq]
	readsPending    int
	allGenerated    bool
	waitAck         bool
	ackSeen         bool

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
		return float64(d.readQueue.Len())
	})
	sam.Register("dma_reads_inflight", name, "", "reads", func(sim.Time, units.Duration) float64 {
		return float64(d.readsPending)
	})
}

// LastChainTxn reports the transaction ID of the most recently completed
// chain (0 when untraced) — how the driver's IRQ handler finds the span to
// close with StageChainDone.
func (d *DMAC) LastChainTxn() uint64 { return d.lastTxn }

type readReq struct {
	tlp    *pcie.TLP
	onData func(data []byte)
	// tagWait marks that a queue-enter wait event was recorded for this
	// request when the tag table starved, so dequeueing pairs it with the
	// matching queue-exit.
	tagWait bool
}

func newDMAC(c *Chip) *DMAC {
	return &DMAC{chip: c, tags: pcie.NewTagTable(c.params.DMA.OutstandingReads)}
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
	total := units.ByteSize(count) * DescriptorBytes
	table := make([]byte, total)
	chunks := pcie.SplitRead(tableAddr, total, d.chip.params.DMA.FetchChunk)
	remaining := len(chunks)
	var off uint64
	for _, ch := range chunks {
		chunkOff := off
		chunkLen := ch.ReadLen
		d.enqueueRead(ch, func(data []byte) {
			copy(table[chunkOff:], data)
			remaining--
			if remaining == 0 {
				d.parseAndRun(table, count)
			}
		})
		off += uint64(chunkLen)
	}
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
	d.readsPending = 0
	d.allGenerated = false
	d.waitAck = false
	d.ackSeen = false
	d.lastErr = nil
	d.stuck = false
}

func (d *DMAC) parseAndRun(table []byte, count int) {
	descs := make([]Descriptor, 0, count)
	for i := 0; i < count; i++ {
		desc, err := DecodeDescriptor(table[i*DescriptorBytes:])
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
	for n > 0 {
		l := maxPayload
		if l > n {
			l = n
		}
		if room := units.ByteSize(4096 - uint64(addr)%4096); l > room {
			l = room
		}
		count++
		addr += pcie.Addr(l)
		n -= l
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
			for _, ch := range pcie.SplitRead(pcie.Addr(desc.Src), desc.Len, d.chip.params.DMA.MaxReadRequest) {
				delta := uint64(ch.Addr) - desc.Src
				d.totalWriteTLPs += splitCount(pcie.Addr(desc.Dst+delta), ch.ReadLen, maxPayload)
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

// generateWrite schedules a DescWrite's TLPs: data flows from internal
// memory to the destination.
func (d *DMAC) generateWrite(desc Descriptor, maxPayload units.ByteSize) {
	relaxed := d.classOfGlobal(pcie.Addr(desc.Dst)) == ClassGPU
	addr := pcie.Addr(desc.Dst)
	srcOff := desc.Src
	n := desc.Len
	for n > 0 {
		l := maxPayload
		if l > n {
			l = n
		}
		if room := units.ByteSize(4096 - uint64(addr)%4096); l > room {
			l = room
		}
		d.issueWrite(addr, srcOff, l, relaxed)
		addr += pcie.Addr(l)
		srcOff += uint64(l)
		n -= l
	}
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

// issueWrite reserves an issue slot for one write TLP reading its payload
// from internal memory at send time.
func (d *DMAC) issueWrite(addr pcie.Addr, srcOff uint64, n units.ByteSize, relaxed bool) {
	d.issuesPending++
	dur := d.issueSlotDur(n)
	reservedAt := d.chip.eng.Now()
	slot := d.issue.Reserve(reservedAt, dur)
	gen := d.chainGen
	d.chip.eng.AtComp(d.comp, slot.Add(dur), func() {
		if gen != d.chainGen {
			return // chain aborted since this slot was reserved
		}
		data, err := d.chip.intMem.ReadBytes(srcOff, n)
		if err != nil {
			panic(fmt.Sprintf("peach2 %s: DMA write source: %v", d.chip.name, err))
		}
		d.writeTLPsIssued++
		d.issuesPending--
		d.mTLPs.Inc()
		final := d.writeTLPsIssued == d.totalWriteTLPs
		d.recordIssueWait(final, reservedAt, slot)
		tlp := d.chip.pool.Get()
		tlp.Kind = pcie.MWr
		tlp.Addr = addr
		tlp.Data = data
		tlp.Requester = d.chip.id
		tlp.Relaxed = relaxed
		tlp.Last = final
		tlp.Flush = final && d.waitAck
		tlp.Txn = d.txn
		d.recordIssue(tlp, final)
		d.sendFromDMAC(tlp)
		d.maybeComplete()
	})
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

// issueWriteData is issueWrite for payloads already in hand (the pipelined
// DMAC forwarding read completions).
func (d *DMAC) issueWriteData(addr pcie.Addr, data []byte, relaxed bool) {
	d.issuesPending++
	dur := d.issueSlotDur(units.ByteSize(len(data)))
	reservedAt := d.chip.eng.Now()
	slot := d.issue.Reserve(reservedAt, dur)
	gen := d.chainGen
	d.chip.eng.AtComp(d.comp, slot.Add(dur), func() {
		if gen != d.chainGen {
			return // chain aborted since this slot was reserved
		}
		d.writeTLPsIssued++
		d.issuesPending--
		d.mTLPs.Inc()
		final := d.writeTLPsIssued == d.totalWriteTLPs
		d.recordIssueWait(final, reservedAt, slot)
		tlp := d.chip.pool.Get()
		tlp.Kind = pcie.MWr
		tlp.Addr = addr
		tlp.Data = data
		tlp.Requester = d.chip.id
		tlp.Relaxed = relaxed
		tlp.Last = final
		tlp.Flush = final && d.waitAck
		tlp.Txn = d.txn
		d.recordIssue(tlp, final)
		d.sendFromDMAC(tlp)
		d.maybeComplete()
	})
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
	for _, ch := range pcie.SplitRead(pcie.Addr(desc.Src), desc.Len, d.chip.params.DMA.MaxReadRequest) {
		delta := uint64(ch.Addr) - desc.Src
		dstOff := desc.Dst + delta
		d.enqueueRead(ch, func(data []byte) {
			if err := d.chip.intMem.Write(dstOff, data); err != nil {
				panic(fmt.Sprintf("peach2 %s: DMA read sink: %v", d.chip.name, err))
			}
		})
	}
}

// generatePipelined schedules a DescPipelined: as each read completion
// arrives from the local source, its bytes stream straight out as write
// TLPs — no staging in internal memory (§IV-B2's "new DMAC").
func (d *DMAC) generatePipelined(desc Descriptor, maxPayload units.ByteSize) {
	relaxed := d.classOfGlobal(pcie.Addr(desc.Dst)) == ClassGPU
	for _, ch := range pcie.SplitRead(pcie.Addr(desc.Src), desc.Len, d.chip.params.DMA.MaxReadRequest) {
		delta := uint64(ch.Addr) - desc.Src
		dst := pcie.Addr(desc.Dst + delta)
		d.enqueueRead(ch, func(data []byte) {
			for _, w := range pcie.SplitWrite(dst, data, maxPayload, relaxed) {
				d.issueWriteData(w.Addr, w.Data, relaxed)
			}
		})
	}
}

// enqueueRead queues a read request; pumpReads issues as tags free up.
func (d *DMAC) enqueueRead(tlp *pcie.TLP, onData func([]byte)) {
	d.readQueue.Push(readReq{tlp: tlp, onData: onData})
	d.mQueue.Set(int64(d.readQueue.Len()))
}

// pumpReads issues queued reads while tags are available. Reads verify that
// the target is local: the DMAC may only read through Port N (§III-F).
func (d *DMAC) pumpReads() {
	for d.readQueue.Len() > 0 {
		req := *d.readQueue.At(0)
		out, err := d.chip.route(req.tlp.Addr)
		if err != nil {
			panic(fmt.Sprintf("peach2 %s: DMA read: %v", d.chip.name, err))
		}
		if out != PortN {
			panic(fmt.Sprintf("peach2 %s: DMA read from %v is not local — RDMA put only", d.chip.name, req.tlp.Addr))
		}
		onData := req.onData
		st := &readState{}
		tag, ok := d.tags.Alloc(req.tlp.ReadLen, func(data []byte) {
			st.done = true
			d.readsPending--
			onData(data)
			d.pumpReads()
			d.maybeComplete()
		})
		if !ok {
			// Tag-starved; retry on next completion. Mark the wait once so
			// the traced chain attributes the stall to tag exhaustion.
			if d.txn != 0 && !req.tagWait {
				d.readQueue.At(0).tagWait = true
				d.chip.rec.Record(obsv.Event{At: d.chip.eng.Now(), Txn: d.txn,
					Stage: obsv.StageQueueEnter, Where: d.chip.name,
					Addr: uint64(req.tlp.Addr), Cause: obsv.CauseTagWait})
			}
			return
		}
		d.readQueue.Pop()
		d.mQueue.Set(int64(d.readQueue.Len()))
		d.readsPending++
		d.mReads.Inc()
		if req.tagWait && d.txn != 0 {
			d.chip.rec.Record(obsv.Event{At: d.chip.eng.Now(), Txn: d.txn,
				Stage: obsv.StageQueueExit, Where: d.chip.name,
				Addr: uint64(req.tlp.Addr), Cause: obsv.CauseTagWait})
		}
		mrd := *req.tlp
		mrd.Tag = tag
		mrd.Requester = d.chip.id
		mrd.Txn = d.txn
		gen := d.chainGen
		reservedAt := d.chip.eng.Now()
		slot := d.readIssue.Reserve(reservedAt, d.chip.params.DMA.IssueInterval)
		if d.txn != 0 && slot > reservedAt {
			// Paced behind earlier read requests in the issue pipeline.
			d.chip.rec.Record(obsv.Event{At: reservedAt, Txn: d.txn,
				Stage: obsv.StageQueueEnter, Where: d.chip.name,
				Addr: uint64(mrd.Addr), Cause: obsv.CauseChainSerialization})
			d.chip.rec.Record(obsv.Event{At: slot, Txn: d.txn,
				Stage: obsv.StageQueueExit, Where: d.chip.name,
				Addr: uint64(mrd.Addr), Cause: obsv.CauseChainSerialization})
		}
		d.chip.eng.AtComp(d.comp, slot.Add(d.chip.params.DMA.IssueInterval), func() {
			if gen != d.chainGen {
				return // chain aborted since this slot was reserved
			}
			d.chip.ports[PortN].Send(d.chip.eng.Now(), &mrd)
			d.armReadTimeout(&mrd, st, 0, gen)
		})
	}
}

// readState marks one read's completion so its timeout can stand down.
type readState struct{ done bool }

// armReadTimeout schedules the completion timeout for one outstanding
// read: each expiry retransmits the request with exponential backoff until
// the retry budget runs out, then the whole chain is aborted with an
// error. Gated on fault injection so fault-free runs schedule nothing.
func (d *DMAC) armReadTimeout(mrd *pcie.TLP, st *readState, attempt int, gen uint64) {
	if !d.chip.faults.Enabled() {
		return
	}
	timeout := d.chip.params.DMA.cplTimeout() << uint(attempt)
	d.chip.eng.AfterComp(d.comp, timeout, func() {
		if st.done || gen != d.chainGen || d.state == dmacIdle {
			return
		}
		if attempt >= d.chip.params.DMA.cplRetries() {
			d.failChain(fmt.Errorf("read %v (tag %d) lost: no completion after %d retries", mrd.Addr, mrd.Tag, attempt))
			return
		}
		d.chip.faults.NoteReadRetry()
		if d.txn != 0 {
			d.chip.rec.Record(obsv.Event{At: d.chip.eng.Now(), Txn: d.txn,
				Stage: obsv.StageReadRetry, Where: d.chip.name, Addr: uint64(mrd.Addr),
				Note: fmt.Sprintf("attempt %d", attempt+1)})
		}
		retry := *mrd
		// A retry is a logically new request, not the old packet moving
		// again: clear the conservation-ledger identity so the fabric
		// births it fresh instead of flagging a duplicate.
		retry.LID = 0
		d.chip.ports[PortN].Send(d.chip.eng.Now(), &retry)
		d.armReadTimeout(mrd, st, attempt+1, gen)
	})
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
	if d.issuesPending > 0 || d.readsPending > 0 || d.readQueue.Len() > 0 {
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
