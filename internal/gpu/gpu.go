// Package gpu models a CUDA-class accelerator well enough to exercise the
// TCA communication paths: device-memory allocation, the GPUDirect Support
// for RDMA pinning sequence (token → pin → BAR address), a BAR1 window that
// translates bus addresses to device pages, and the timing personalities the
// paper measured — a deep posted-write queue that never stalls the fabric,
// and a BAR read path serialized by the address-translation unit (the
// 830 MB/s inbound-read ceiling of §IV-A2).
package gpu

import (
	"fmt"

	"tca/internal/freelist"
	"tca/internal/memory"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// PinPageSize is the granularity at which GPUDirect pins device memory into
// the PCIe address space ("this feature enables the GPU memory at page
// granularity to be mapped", §III-C). Kepler BAR1 maps 64 KiB pages.
const PinPageSize = 64 * units.KiB

// Params describes one GPU.
type Params struct {
	// Model is the marketing name ("NVIDIA Tesla K20").
	Model string
	// MemorySize is the GDDR capacity.
	MemorySize units.ByteSize
	// BAR1Size is the window mappable into PCIe space (256 MiB on K20).
	BAR1Size units.ByteSize
	// BARReadLatency is the pipeline latency of an inbound read.
	BARReadLatency units.Duration
	// BARReadService serializes inbound reads through the BAR address
	// translation unit; 256 B per ~308 ns ≈ 830 MB/s.
	BARReadService units.Duration
}

// K20Params matches the paper's test GPU (Table II) with the read-path
// behaviour measured in §IV-A2.
var K20Params = Params{
	Model:          "NVIDIA Tesla K20",
	MemorySize:     5 * units.GiB,
	BAR1Size:       256 * units.MiB,
	BARReadLatency: 400 * units.Nanosecond,
	BARReadService: 308 * units.Nanosecond,
}

// DevicePtr is a device-local GDDR address, as returned by MemAlloc — the
// analogue of CUdeviceptr.
type DevicePtr uint64

// P2PToken grants another PCIe device permission to pin a region of this
// GPU's memory — the value cuPointerGetAttribute(CU_POINTER_ATTRIBUTE_
// P2P_TOKENS) returns.
type P2PToken struct {
	gpu *GPU
	ptr DevicePtr
	n   units.ByteSize
}

// GPU is the device model. It attaches to a PCIe switch through its single
// upstream port; inbound Memory Writes land in GDDR through pinned BAR1
// pages, inbound Memory Reads return completions after translation delay.
type GPU struct {
	eng    *sim.Engine
	name   string
	params Params
	mem    *memory.RAM
	port   *pcie.Port

	// allocNext is a bump allocator over GDDR that never recycles space
	// (the experiments never need it); live records each allocation's size
	// for PointerGetAttribute.
	allocNext DevicePtr
	live      map[DevicePtr]units.ByteSize

	// BAR1: bar1Base is assigned by the node topology; pinned maps BAR1
	// page index → GDDR page offset.
	bar1Base pcie.Addr
	bar1Next units.ByteSize
	pinned   map[uint64]uint64

	readSer sim.Serializer
	// pool and readFree recycle the read completions and read replies.
	pool      pcie.TLPPool
	readFree  freelist.List[readReply]
	writeTLPs uint64
	readTLPs  uint64
	bytesIn   units.ByteSize
	bytesOut  units.ByteSize

	// led is the conservation ledger (nil when disabled): the GPU is the
	// sink of every packet that lands in GDDR or is served from it.
	led obsv.Ledger
}

// New creates a GPU.
func New(eng *sim.Engine, name string, params Params) *GPU {
	if params.MemorySize <= 0 || params.BAR1Size <= 0 {
		panic(fmt.Sprintf("gpu %s: invalid sizes %v/%v", name, params.MemorySize, params.BAR1Size))
	}
	g := &GPU{
		eng:    eng,
		name:   name,
		params: params,
		mem:    memory.NewRAM(params.MemorySize),
		live:   make(map[DevicePtr]units.ByteSize),
		pinned: make(map[uint64]uint64),
		// Leave device page 0 unused so DevicePtr 0 can mean "null".
		allocNext: DevicePtr(PinPageSize),
	}
	g.port = pcie.NewPort(g, "pcie", pcie.RoleEP)
	return g
}

// DevName implements pcie.Device.
func (g *GPU) DevName() string { return g.name }

// Instrument attaches the GPU to an observability set; today that is just
// the conservation-ledger handle, so inbound writes and reads terminating
// in GDDR are accounted as delivered.
func (g *GPU) Instrument(set *obsv.Set) {
	g.led = set.Ledger()
}

// Port returns the GPU's upstream PCIe port.
func (g *GPU) Port() *pcie.Port { return g.port }

// Memory exposes the GDDR for test assertions and host-side cudaMemcpy.
func (g *GPU) Memory() *memory.RAM { return g.mem }

// SetBAR1Base assigns the bus address of the BAR1 window; the node topology
// calls it during enumeration, before any pinning.
func (g *GPU) SetBAR1Base(b pcie.Addr) {
	if len(g.pinned) > 0 {
		panic(fmt.Sprintf("gpu %s: SetBAR1Base after pages were pinned", g.name))
	}
	g.bar1Base = b
}

// BAR1Window reports the bus window of BAR1.
func (g *GPU) BAR1Window() pcie.Range {
	return pcie.Range{Base: g.bar1Base, Size: uint64(g.params.BAR1Size)}
}

// MemAlloc reserves n bytes of GDDR — the cuMemAlloc analogue. Allocations
// are PinPageSize-aligned so any allocation can be pinned.
func (g *GPU) MemAlloc(n units.ByteSize) (DevicePtr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("gpu %s: MemAlloc(%d)", g.name, n)
	}
	aligned := (n + PinPageSize - 1) / PinPageSize * PinPageSize
	if units.ByteSize(g.allocNext)+aligned > g.params.MemorySize {
		return 0, fmt.Errorf("gpu %s: out of device memory (%v requested, %v free)",
			g.name, n, g.params.MemorySize-units.ByteSize(g.allocNext))
	}
	ptr := g.allocNext
	g.allocNext += DevicePtr(aligned)
	g.live[ptr] = n
	return ptr, nil
}

// PointerGetAttribute returns the P2P token for an allocation — step 2 of
// the GPUDirect RDMA sequence in §IV-A2.
func (g *GPU) PointerGetAttribute(ptr DevicePtr) (P2PToken, error) {
	n, ok := g.live[ptr]
	if !ok {
		return P2PToken{}, fmt.Errorf("gpu %s: no allocation at %#x", g.name, uint64(ptr))
	}
	return P2PToken{gpu: g, ptr: ptr, n: n}, nil
}

// Pin maps the token's pages into BAR1 and returns the bus address other
// devices use to reach the memory — step 3, the P2P driver's job. The
// mapping is page-granular; the returned address points at the token's
// first byte.
func (g *GPU) Pin(tok P2PToken) (pcie.Addr, error) {
	if tok.gpu != g {
		return 0, fmt.Errorf("gpu %s: token belongs to %s", g.name, tok.gpu.name)
	}
	if g.bar1Base == 0 {
		return 0, fmt.Errorf("gpu %s: BAR1 not assigned yet", g.name)
	}
	firstPage := uint64(tok.ptr) / uint64(PinPageSize)
	lastPage := (uint64(tok.ptr) + uint64(tok.n) - 1) / uint64(PinPageSize)
	pages := lastPage - firstPage + 1
	if g.bar1Next+units.ByteSize(pages)*PinPageSize > g.params.BAR1Size {
		return 0, fmt.Errorf("gpu %s: BAR1 exhausted pinning %v", g.name, tok.n)
	}
	barStart := g.bar1Next
	for i := uint64(0); i < pages; i++ {
		barPage := uint64(barStart)/uint64(PinPageSize) + i
		g.pinned[barPage] = firstPage + i
	}
	g.bar1Next += units.ByteSize(pages) * PinPageSize
	off := uint64(tok.ptr) % uint64(PinPageSize)
	return g.bar1Base + pcie.Addr(uint64(barStart)+off), nil
}

// translate maps a bus address inside BAR1 to a GDDR offset via the pinned
// page table.
func (g *GPU) translate(a pcie.Addr) (uint64, error) {
	if !g.BAR1Window().Contains(a) {
		return 0, fmt.Errorf("gpu %s: address %v outside BAR1 %v", g.name, a, g.BAR1Window())
	}
	off := uint64(a - g.bar1Base)
	devPage, ok := g.pinned[off/uint64(PinPageSize)]
	if !ok {
		return 0, fmt.Errorf("gpu %s: access to unpinned BAR1 page at %v", g.name, a)
	}
	return devPage*uint64(PinPageSize) + off%uint64(PinPageSize), nil
}

// Accept implements pcie.Device.
func (g *GPU) Accept(now sim.Time, t *pcie.TLP, port *pcie.Port) units.Duration {
	switch t.Kind {
	case pcie.MWr:
		off, err := g.translate(t.Addr)
		if err != nil {
			panic(err)
		}
		if err := g.mem.Write(off, t.Data); err != nil {
			panic(fmt.Sprintf("gpu %s: %v", g.name, err))
		}
		g.writeTLPs++
		g.bytesIn += t.PayloadLen()
		if g.led != nil && t.LID != 0 {
			g.led.Delivered(now, t.LID, uint64(t.Addr), t.Data, g.name)
		}
		// The write terminated in GDDR: the GPU is the packet's sink.
		t.Release()
		// "The GPU is assumed to be of sufficient size for the request
		// queue from PCIe" (§IV-B2): credit returns immediately.
		return 0
	case pcie.MRd:
		g.readTLPs++
		if g.led != nil && t.LID != 0 {
			g.led.Delivered(now, t.LID, uint64(t.Addr), nil, g.name)
		}
		req := t.ReadReq()
		t.Release()
		// The BAR translation unit works through the request in
		// completion-sized units: a 512 B read costs two service slots.
		// This is what pins inbound read bandwidth to ~256 B per
		// service interval (≈830 MB/s) regardless of read-request size.
		unitCount := (int64(req.ReadLen) + 255) / 256
		service := units.Duration(unitCount) * g.params.BARReadService
		start := g.readSer.Reserve(now, service)
		a := g.readFree.Get()
		a.g, a.port, a.req = g, port, req
		// The reply inherits the running event's component, as At would.
		g.eng.AtAction(g.eng.CurrentComp(), start.Add(service).Add(g.params.BARReadLatency), a)
		return 0
	default:
		panic(fmt.Sprintf("gpu %s: unexpected %v", g.name, t.Kind))
	}
}

// readReply is the pooled BAR read reply. The bytes are read when it runs,
// at reply time, not when the request arrived: that timing is the
// paper's inbound-read behaviour.
type readReply struct {
	g    *GPU
	port *pcie.Port
	req  pcie.ReadReq
}

// RunAction implements sim.Action.
func (a *readReply) RunAction(now sim.Time) {
	g, port, req := a.g, a.port, a.req
	g.readFree.Put(a)
	off, err := g.translate(req.Addr)
	if err != nil {
		panic(err)
	}
	if err := pcie.SendCompletions(now, port, &g.pool, req, g.mem, off); err != nil {
		panic(fmt.Sprintf("gpu %s: %v", g.name, err))
	}
	g.bytesOut += req.ReadLen
}
