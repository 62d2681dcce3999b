package memory

import (
	"fmt"

	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// targetParams sets the timing personality of a memory behind a PCIe port.
type targetParams struct {
	// ReadLatency is the pipeline latency from Memory Read arrival to the
	// first Completion leaving (memory controller + access time).
	ReadLatency units.Duration
	// ReadService serializes read requests: each one occupies the read
	// path for this long before the next is serviced. Zero means fully
	// pipelined. The GPU's BAR address-translation unit has a large
	// ReadService — the mechanism behind the paper's 830 MB/s GPU-read
	// ceiling (§IV-A2).
	ReadService units.Duration
	// WriteDrain is how long an arriving posted write occupies the
	// ingress buffer before its flow-control credit frees (sink speed).
	WriteDrain units.Duration
	// DeepWriteQueue marks a sink with a request queue deep enough that
	// writes are accepted immediately regardless of drain state — the
	// paper's explanation for remote GPU writes running at full speed
	// (§IV-B2). Such sinks return their credit instantly.
	DeepWriteQueue bool
}

// target exposes a RAM as a PCIe completer device: MWr TLPs write into it,
// MRd TLPs produce CplD replies on the arrival port. Base is the bus
// address its window starts at; bus address X lands at RAM offset X-Base.
// No node uses it: gpu.GPU and host.RootComplex each model their own
// completer.
type target struct {
	eng     *sim.Engine
	name    string
	ram     *RAM
	base    pcie.Addr
	params  targetParams
	readSer sim.Serializer
	watches []watch

	// Stats
	writeTLPs uint64
	readTLPs  uint64
	bytesIn   units.ByteSize
	bytesOut  units.ByteSize
}

type watch struct {
	r  pcie.Range
	fn func(now sim.Time, addr pcie.Addr, n units.ByteSize)
}

// newTarget wraps ram as a PCIe completer at bus address base.
func newTarget(eng *sim.Engine, name string, ram *RAM, base pcie.Addr, params targetParams) *target {
	if ram == nil {
		panic("memory: newTarget with nil RAM")
	}
	return &target{eng: eng, name: name, ram: ram, base: base, params: params}
}

// DevName implements pcie.Device.
func (t *target) DevName() string { return t.name }

// setBase relocates the window (used when the TCA global map assigns the
// final addresses at sub-cluster construction).
func (t *target) setBase(b pcie.Addr) { t.base = b }

// window reports the bus window the target serves.
func (t *target) window() pcie.Range {
	return pcie.Range{Base: t.base, Size: uint64(t.ram.Size())}
}

// watch calls fn whenever a posted write touches window r (bus addresses).
// The host driver's polling loop and DMA completion flags build on this.
func (t *target) watch(r pcie.Range, fn func(now sim.Time, addr pcie.Addr, n units.ByteSize)) {
	t.watches = append(t.watches, watch{r: r, fn: fn})
}

// Accept implements pcie.Device.
func (t *target) Accept(now sim.Time, p *pcie.TLP, port *pcie.Port) units.Duration {
	switch p.Kind {
	case pcie.MWr:
		off := uint64(p.Addr - t.base)
		if err := t.ram.Write(off, p.Data); err != nil {
			panic(fmt.Sprintf("memory %s: MWr %v: %v", t.name, p.Addr, err))
		}
		t.writeTLPs++
		t.bytesIn += p.PayloadLen()
		n := units.ByteSize(len(p.Data))
		for _, w := range t.watches {
			hit := pcie.Range{Base: p.Addr, Size: uint64(n)}
			if w.r.Overlaps(hit) {
				w.fn(now, p.Addr, n)
			}
		}
		if t.params.DeepWriteQueue {
			return 0
		}
		return t.params.WriteDrain
	case pcie.MRd:
		t.readTLPs++
		req := *p // copy: the reply closure outlives the arrival event
		start := now
		if t.params.ReadService > 0 {
			start = t.readSer.Reserve(now, t.params.ReadService)
		}
		reply := start.Add(t.params.ReadService).Add(t.params.ReadLatency)
		if t.params.ReadService == 0 {
			reply = now.Add(t.params.ReadLatency)
		}
		t.eng.At(reply, func() {
			off := uint64(req.Addr - t.base)
			data, err := t.ram.ReadBytes(off, req.ReadLen)
			if err != nil {
				panic(fmt.Sprintf("memory %s: MRd %v: %v", t.name, req.Addr, err))
			}
			t.bytesOut += units.ByteSize(len(data))
			maxPayload := port.Link().Params().MaxPayload
			for _, c := range pcie.SplitCompletion(&req, data, maxPayload) {
				port.Send(t.eng.Now(), c)
			}
		})
		return 0
	default:
		panic(fmt.Sprintf("memory %s: unexpected %v (targets never issue reads)", t.name, p.Kind))
	}
}
