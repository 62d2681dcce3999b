// Package host models one HA-PACS/TCA computation node (§III-C, Fig. 2): a
// dual-socket Xeon E5 root complex with DRAM, a PCIe switch per socket, four
// GPUs (two per socket), and slots for the PEACH2 board and the InfiniBand
// NIC. It also provides the software side the drivers need: DMA buffer
// allocation in host memory, uncached CPU stores for PIO, a polling loop
// with realistic detection latency, and the TSC (the simulated clock).
package host

import (
	"fmt"

	"tca/internal/fault"
	"tca/internal/freelist"
	"tca/internal/gpu"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/units"
)

// Bus-address layout inside one node. DRAM occupies low addresses; device
// BARs sit above it; the TCA global window (PEACH2's BAR) is assigned by the
// sub-cluster plan far above everything local.
const (
	// DeviceWindowBase is where per-device BAR assignment starts — above
	// the largest supported DRAM so device windows never shadow host
	// memory.
	DeviceWindowBase pcie.Addr = 0x40_0000_0000
	// DeviceWindowStride spaces BARs so every device gets an aligned slot.
	DeviceWindowStride = 0x1_0000_0000
)

// Params configures a node's hardware timing.
type Params struct {
	// DRAMSize is host memory capacity (128 GiB on HA-PACS).
	DRAMSize units.ByteSize
	// DRAMReadLatency is memory-controller + DDR3 access time for
	// device-initiated reads.
	DRAMReadLatency units.Duration
	// DRAMWriteDrain is how long an inbound posted write occupies the RC
	// ingress before its credit frees.
	DRAMWriteDrain units.Duration
	// StoreLatency is a CPU uncached/write-combining store reaching the
	// root complex — the first leg of PIO communication.
	StoreLatency units.Duration
	// PollDetectLatency is how long after a DMA write lands in DRAM a
	// spinning CPU poll loop observes the new value (cache snoop +
	// loop granularity).
	PollDetectLatency units.Duration
	// QPILatency is the extra hop latency for PCIe traffic crossing
	// sockets.
	QPILatency units.Duration
	// QPIWriteService serializes cross-QPI peer-to-peer writes; §IV-A2
	// measured "up to several hundred Mbytes/sec", i.e. ~800 ns per
	// 256 B TLP.
	QPIWriteService units.Duration
	// Switch configures the per-socket PCIe switches.
	Switch pcie.SwitchParams
	// MaxPayload is negotiated across the node's internal links (0 =
	// pcie.DefaultMaxPayload). The paper's environment negotiated 256
	// bytes (§IV-A); the payload-sensitivity ablation varies it.
	MaxPayload units.ByteSize
	// GPU and Copy set the GPU models and host-driven copy costs.
	GPU  gpu.Params
	Copy gpu.CopyParams
}

// DefaultParams matches the paper's test environment (Table II).
var DefaultParams = Params{
	DRAMSize:          128 * units.GiB,
	DRAMReadLatency:   250 * units.Nanosecond,
	DRAMWriteDrain:    16 * units.Nanosecond,
	StoreLatency:      150 * units.Nanosecond,
	PollDetectLatency: 60 * units.Nanosecond,
	QPILatency:        400 * units.Nanosecond,
	QPIWriteService:   800 * units.Nanosecond,
	Switch:            pcie.DefaultSwitchParams,
	GPU:               gpu.K20Params,
	Copy:              gpu.K20CopyParams,
}

// GPUsPerNode is fixed by the HA-PACS node design.
const GPUsPerNode = 4

// Node is one computation node.
type Node struct {
	eng    *sim.Engine
	id     int
	name   string
	params Params

	rc    *RootComplex
	socks [2]*pcie.Switch
	gpus  [GPUsPerNode]*gpu.GPU
	copyE *gpu.CopyEngine

	nextWindow pcie.Addr
	dmaNext    uint64
	idNext     pcie.DeviceID

	// pool recycles the TLPs the node's CPU originates (PIO stores);
	// storeFree and pollFree recycle the store-issue and poll-detect
	// actions. All single-threaded, owned by the engine's event loop.
	pool      pcie.TLPPool
	storeFree freelist.List[storeAction]
	pollFree  freelist.List[pollAction]

	// Observability (nil when disabled).
	rec *obsv.Recorder
	// comp is the node's host-time attribution tag (0 when unprofiled):
	// CPU stores, poll-loop detections, root-complex service, and QPI
	// forwards all charge the simulator time they cost to this component.
	comp sim.CompID
}

// Instrument attaches the node and its root complex to an observability
// set: every subsequent Store is a traced transaction, and DRAM traffic
// records host-side span events and counters.
func (n *Node) Instrument(set *obsv.Set) {
	n.rec = set.Recorder()
	n.rc.instrument(set)
	for _, sw := range n.socks {
		sw.Instrument(set)
	}
	for _, g := range n.gpus {
		if g != nil {
			g.Instrument(set)
		}
	}
}

// Profile registers the node with an engine profiler so host CPU time
// spent simulating it (stores, polls, DRAM and QPI service) is attributed
// under the node's name. Safe with a nil profiler.
func (n *Node) Profile(p *prof.Profiler) {
	n.comp = p.Component(n.name)
	for s, sw := range n.socks {
		sw.Profile(p)
		if port := n.rc.dn[s]; port.Connected() {
			port.Link().Profile(p, fmt.Sprintf("link:%s.sock%d.up", n.name, s))
		}
	}
	for i, g := range n.gpus {
		if g != nil && g.Port().Connected() {
			g.Port().Link().Profile(p, fmt.Sprintf("link:%s.gpu%d", n.name, i))
		}
	}
}

// NewNode builds a node with its switches and four GPUs attached. PEACH2
// boards and NICs attach afterwards via AttachDevice.
func NewNode(eng *sim.Engine, id int, params Params) *Node {
	n := &Node{
		eng:        eng,
		id:         id,
		name:       fmt.Sprintf("node%d", id),
		params:     params,
		nextWindow: DeviceWindowBase,
		dmaNext:    4096, // keep bus address 0 unused
		idNext:     pcie.DeviceID(1 + 100*id),
	}
	n.rc = newRootComplex(n)
	for s := 0; s < 2; s++ {
		sw := pcie.NewSwitch(eng, fmt.Sprintf("%s.sock%d", n.name, s), params.Switch)
		n.socks[s] = sw
		pcie.MustConnect(eng, n.rc.dn[s], sw.Upstream(), pcie.LinkParams{Config: pcie.Gen3x16, MaxPayload: params.MaxPayload})
	}
	// Four GPUs: GPU0/1 on socket 0 (reachable by PEACH2), GPU2/3 on
	// socket 1 (behind QPI).
	for i := 0; i < GPUsPerNode; i++ {
		g := gpu.New(eng, fmt.Sprintf("%s.gpu%d", n.name, i), params.GPU)
		w := n.allocWindow(uint64(params.GPU.BAR1Size))
		g.SetBAR1Base(w.Base)
		sock := 0
		if i >= 2 {
			sock = 1
		}
		n.attach(sock, fmt.Sprintf("gpu%d", i), w, g.Port(), pcie.LinkParams{Config: pcie.LinkConfig{Gen: pcie.Gen2, Lanes: 16}, MaxPayload: params.MaxPayload})
		n.gpus[i] = g
	}
	n.copyE = gpu.NewCopyEngine(eng, params.Copy)
	return n
}

// allocWindow reserves the next aligned device BAR window of at least size.
func (n *Node) allocWindow(size uint64) pcie.Range {
	stride := uint64(DeviceWindowStride)
	for stride < size {
		stride *= 2
	}
	base := (uint64(n.nextWindow) + stride - 1) / stride * stride
	n.nextWindow = pcie.Addr(base + stride)
	return pcie.Range{Base: pcie.Addr(base), Size: size}
}

// attach adds a device window on a socket switch and records it in the RC
// routing table.
func (n *Node) attach(sock int, label string, w pcie.Range, port *pcie.Port, lp pcie.LinkParams) {
	dn := n.socks[sock].MustAddDownstream(label, w)
	pcie.MustConnect(n.eng, dn, port, lp)
	n.rc.addSocketWindow(sock, w)
}

// AttachDevice connects an external device (PEACH2 board, IB NIC) into a
// socket slot with window w, and returns nothing; the caller keeps its own
// handle to the device. The window may be huge (PEACH2's 512 GiB BAR): only
// "a few motherboards can support" that in reality (§III-E footnote); the
// simulated BIOS always can.
func (n *Node) AttachDevice(sock int, label string, w pcie.Range, port *pcie.Port, lp pcie.LinkParams) error {
	if sock < 0 || sock > 1 {
		return fmt.Errorf("host %s: socket %d out of range", n.name, sock)
	}
	if w.Overlaps(pcie.Range{Base: 0, Size: uint64(n.params.DRAMSize)}) {
		return fmt.Errorf("host %s: device window %v overlaps DRAM", n.name, w)
	}
	n.attach(sock, label, w, port, lp)
	return nil
}

// AllocDeviceID hands out a node-unique requester ID for a device.
func (n *Node) AllocDeviceID() pcie.DeviceID {
	id := n.idNext
	n.idNext++
	return id
}

// AttachFaults connects the node's root complex to a fault injector so it
// can lose read completions. A nil injector (the default) changes nothing.
func (n *Node) AttachFaults(inj *fault.Injector) { n.rc.faults = inj }

// Name reports "node<id>".
func (n *Node) Name() string { return n.name }

// GPU returns GPU i (0–3).
func (n *Node) GPU(i int) *gpu.GPU { return n.gpus[i] }

// CopyEngine returns the node's cudaMemcpy-style engine.
func (n *Node) CopyEngine() *gpu.CopyEngine { return n.copyE }

// Socket returns the per-socket switch (0 or 1) for topology assertions.
func (n *Node) Socket(i int) *pcie.Switch { return n.socks[i] }

// AllocDMABuffer reserves n bytes of host memory for device DMA (the
// PEACH2 driver's pre-allocated buffer in §IV-A1) and returns its bus
// address.
func (n *Node) AllocDMABuffer(size units.ByteSize) (pcie.Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("host %s: AllocDMABuffer(%d)", n.name, size)
	}
	// 4 KiB-align so DMA never straddles pages unexpectedly.
	base := (n.dmaNext + 4095) / 4096 * 4096
	if base+uint64(size) > uint64(n.params.DRAMSize) {
		return 0, fmt.Errorf("host %s: out of DMA buffer space", n.name)
	}
	n.dmaNext = base + uint64(size)
	return pcie.Addr(base), nil
}

// WriteLocal writes host memory directly (a cached CPU store — no PCIe).
func (n *Node) WriteLocal(a pcie.Addr, data []byte) error {
	return n.rc.dram.Write(uint64(a), data)
}

// ReadLocal reads host memory directly (a cached CPU load).
func (n *Node) ReadLocal(a pcie.Addr, size units.ByteSize) ([]byte, error) {
	return n.rc.dram.ReadBytes(uint64(a), size)
}

// ReadLocalInto is ReadLocal into buf, whose length is the byte count.
func (n *Node) ReadLocalInto(a pcie.Addr, buf []byte) error {
	return n.rc.dram.Read(uint64(a), buf)
}

// Store performs an uncached CPU store to a device bus address — the PIO
// primitive (§III-F1): "a user program can seamlessly perform RDMA write
// access according to an ordinary store instruction to the mmaped area."
// The data must fit one TLP.
func (n *Node) Store(a pcie.Addr, data []byte) {
	n.StoreTxn(a, data)
}

// StoreTxn is Store returning the observability transaction ID assigned to
// the write (0 when the node is uninstrumented). The span opens with a
// StageCPUStore event at the instant the store issues, so a transaction's
// hop sum equals its end-to-end PIO latency.
func (n *Node) StoreTxn(a pcie.Addr, data []byte) uint64 {
	if len(data) == 0 || len(data) > int(pcie.DefaultMaxPayload) {
		panic(fmt.Sprintf("host %s: Store of %d bytes", n.name, len(data)))
	}
	txn := n.rec.NextTxn()
	if txn != 0 {
		n.rec.Record(obsv.Event{At: n.eng.Now(), Txn: txn, Stage: obsv.StageCPUStore,
			Where: n.name, Addr: uint64(a)})
	}
	t := n.pool.Get()
	t.Kind = pcie.MWr
	t.Addr = a
	t.SetPayload(data)
	t.Last = true
	t.Txn = txn
	n.eng.AfterAction(n.comp, n.params.StoreLatency, n.newStore(t))
	return txn
}

// storeAction is the pooled store-issue event: after the uncached-store
// latency the packet enters the fabric at the root complex. The TLP itself
// is released downstream at its sink.
type storeAction struct {
	n *Node
	t *pcie.TLP
}

func (n *Node) newStore(t *pcie.TLP) *storeAction {
	a := n.storeFree.Get()
	a.n, a.t = n, t
	return a
}

// RunAction implements sim.Action.
func (a *storeAction) RunAction(now sim.Time) {
	n, t := a.n, a.t
	n.storeFree.Put(a)
	n.rc.routeFromCPU(now, t)
}

// Poll arranges fn to run when a device write lands in host memory at range
// r, plus the poll-loop detection latency — the measurement technique of
// §IV-B1 step 6. A range has one poller: polling an equal range again
// replaces fn, so re-arming a flag word never stacks pollers. A distinct or
// merely overlapping range gets a poller of its own.
func (n *Node) Poll(r pcie.Range, fn func(now sim.Time)) {
	for i := range n.rc.watches {
		if n.rc.watches[i].r == r {
			n.rc.watches[i].fn = fn
			return
		}
	}
	n.rc.watches = append(n.rc.watches, rcWatch{r: r, fn: fn})
}

// pollAction is the pooled poll-detection event: the spinning CPU loop
// observes the landed write after the detection latency and runs the
// registered callback.
type pollAction struct {
	n    *Node
	fn   func(now sim.Time)
	txn  uint64
	base pcie.Addr
}

// RunAction implements sim.Action.
func (a *pollAction) RunAction(now sim.Time) {
	n, fn, txn, base := a.n, a.fn, a.txn, a.base
	n.pollFree.Put(a)
	if txn != 0 && n.rec != nil {
		n.rec.Record(obsv.Event{At: now, Txn: txn,
			Stage: obsv.StagePollSeen, Where: n.name, Addr: uint64(base)})
	}
	fn(now)
}
