package pcie

import (
	"fmt"

	"tca/internal/units"
)

// Protocol overhead constants from §IV-A of the paper: for every payload of
// up to MaxPayload bytes a packet carries a 16-byte Transaction Layer header
// (4 DW, 64-bit addressing), a 2-byte Data Link Layer sequence number, a
// 4-byte LCRC, and 1-byte start and stop framing symbols on the Physical
// Layer.
const (
	TLHeaderBytes units.ByteSize = 16
	DLLSeqBytes   units.ByteSize = 2
	DLLLCRCBytes  units.ByteSize = 4
	PHYFrameBytes units.ByteSize = 2 // STP + END
	TLPOverhead                  = TLHeaderBytes + DLLSeqBytes + DLLLCRCBytes + PHYFrameBytes

	// DefaultMaxPayload is the maximum payload size negotiated in the
	// paper's test environment (§IV-A: "the maximum payload size is 256
	// bytes").
	DefaultMaxPayload units.ByteSize = 256
)

// Kind enumerates the TLP types the model uses.
type Kind int

// TLP kinds.
const (
	// MWr is a posted Memory Write Request — the only packet PEACH2
	// forwards between nodes (RDMA-put-only, §III-F).
	MWr Kind = iota
	// MRd is a non-posted Memory Read Request; allowed only toward the
	// local host/GPU through Port N.
	MRd
	// CplD is a Completion with Data answering an MRd.
	CplD
	// Cpl is a completion without data (errors, zero-length reads).
	Cpl
)

// String names the kind with PCIe mnemonics.
func (k Kind) String() string {
	switch k {
	case MWr:
		return "MWr"
	case MRd:
		return "MRd"
	case CplD:
		return "CplD"
	case Cpl:
		return "Cpl"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DeviceID identifies a requester/completer on the fabric (a compressed
// bus/device/function triple).
type DeviceID uint16

// TLP is a Transaction Layer Packet. One value moves through the fabric by
// pointer; links and routers never copy payloads.
//
// TLPs on the hot path are drawn from a TLPPool (see pool.go) and returned
// at their sink; the poolsafety analyzer enforces the Get/Release/Pin
// lifecycle through the marker below.
//
//tca:pooled
type TLP struct {
	Kind Kind
	// Addr is the target bus address for MWr/MRd.
	Addr Addr
	// Data is the payload of an MWr or CplD.
	Data []byte
	// ReadLen is the requested byte count of an MRd.
	ReadLen units.ByteSize
	// Requester identifies the device that originated the transaction;
	// completions are routed back to it by ID, not by address.
	Requester DeviceID
	// Tag matches completions to outstanding read requests.
	Tag uint8
	// Relaxed marks PCIe relaxed-ordering; the GPU's deep request queue
	// accepts relaxed writes without strict drain ordering (§IV-B2).
	Relaxed bool
	// Last marks the final completion of a multi-CplD read, and the final
	// packet of a multi-TLP write burst (used for flush semantics).
	Last bool
	// Flush asks the last router on the path to acknowledge delivery
	// back to the requester once the packet has drained toward a
	// strictly-ordered sink. PEACH2's DMA controller sets it on the final
	// packet of a chain whose destination is remote *host* memory; deep-
	// queue (GPU) sinks never need it (§IV-B2).
	Flush bool
	// Txn is the observability transaction ID: every instrumented PIO
	// store and DMA chain tags its packets so each hop can record a span
	// event (internal/obsv). Zero means "untraced" and records nothing.
	Txn uint64
	// LID is the conservation-ledger identity (obsv.Ledger), minted lazily
	// by the first instrumented link the packet crosses. Zero means
	// "untracked". Copy-forwarding paths must carry it; a logically *new*
	// packet (a read retry reissued under a fresh timeout) must clear it.
	LID uint64

	// pool is the free list Release returns the packet to; nil for
	// unpooled packets (composite literals, SplitWrite products) and after
	// Pin or Release. See pool.go.
	pool *TLPPool
	// scratch is the retained payload buffer SetPayload copies into; its
	// capacity survives Release so steady-state traffic stops allocating.
	scratch []byte
}

// PayloadLen reports the packet's payload byte count.
func (t *TLP) PayloadLen() units.ByteSize { return units.ByteSize(len(t.Data)) }

// WireBytes reports the packet's size on the wire including all protocol
// overhead — the number that multiplies into serialization time.
func (t *TLP) WireBytes() units.ByteSize {
	switch t.Kind {
	case MWr, CplD:
		return TLPOverhead + units.ByteSize(len(t.Data))
	case MRd, Cpl:
		return TLPOverhead
	default:
		panic(fmt.Sprintf("pcie: WireBytes on unknown kind %v", t.Kind))
	}
}

// Validate checks structural invariants; links call it on every Send so a
// malformed model fails loudly at the point of injection.
func (t *TLP) Validate(maxPayload units.ByteSize) error {
	switch t.Kind {
	case MWr:
		if len(t.Data) == 0 {
			return fmt.Errorf("pcie: MWr with empty payload at %v", t.Addr)
		}
		if units.ByteSize(len(t.Data)) > maxPayload {
			return fmt.Errorf("pcie: MWr payload %d exceeds MaxPayload %d", len(t.Data), maxPayload)
		}
	case MRd:
		if t.ReadLen <= 0 {
			return fmt.Errorf("pcie: MRd with non-positive length %d", t.ReadLen)
		}
		if len(t.Data) != 0 {
			return fmt.Errorf("pcie: MRd carrying payload")
		}
	case CplD:
		if len(t.Data) == 0 {
			return fmt.Errorf("pcie: CplD with empty payload")
		}
		if units.ByteSize(len(t.Data)) > maxPayload {
			return fmt.Errorf("pcie: CplD payload %d exceeds MaxPayload %d", len(t.Data), maxPayload)
		}
	case Cpl:
		if len(t.Data) != 0 {
			return fmt.Errorf("pcie: Cpl carrying payload")
		}
	default:
		return fmt.Errorf("pcie: unknown TLP kind %d", int(t.Kind))
	}
	return nil
}

// String summarizes the packet for traces.
func (t *TLP) String() string {
	switch t.Kind {
	case MWr:
		return fmt.Sprintf("MWr %v len=%d", t.Addr, len(t.Data))
	case MRd:
		return fmt.Sprintf("MRd %v len=%d tag=%d req=%d", t.Addr, t.ReadLen, t.Tag, t.Requester)
	case CplD:
		return fmt.Sprintf("CplD len=%d tag=%d req=%d last=%t", len(t.Data), t.Tag, t.Requester, t.Last)
	default:
		return fmt.Sprintf("Cpl tag=%d req=%d", t.Tag, t.Requester)
	}
}

// SplitWrite chops a write of data at addr into MWr TLPs that respect
// maxPayload and never cross a 4 KiB page boundary (a PCIe rule that also
// matters for GPUDirect page pinning). The final packet has Last set.
func SplitWrite(addr Addr, data []byte, maxPayload units.ByteSize, relaxed bool) []*TLP {
	if maxPayload <= 0 {
		panic(fmt.Sprintf("pcie: non-positive max payload %d", maxPayload))
	}
	var tlps []*TLP
	const page = 4096
	for len(data) > 0 {
		n := int(maxPayload)
		if n > len(data) {
			n = len(data)
		}
		// Do not cross a 4 KiB boundary.
		if room := page - int(uint64(addr)%page); n > room {
			n = room
		}
		tlps = append(tlps, &TLP{
			Kind:    MWr,
			Addr:    addr,
			Data:    data[:n:n],
			Relaxed: relaxed,
		})
		addr += Addr(n)
		data = data[n:]
	}
	if len(tlps) > 0 {
		tlps[len(tlps)-1].Last = true
	}
	return tlps
}

// ReadChunk returns the length of the first MRd of a read of left bytes at
// addr: at most maxReq, and never crossing a 4 KiB page. A requester
// splits a read by issuing one chunk and advancing addr and left past it.
func ReadChunk(addr Addr, left, maxReq units.ByteSize) units.ByteSize {
	if maxReq <= 0 {
		panic(fmt.Sprintf("pcie: non-positive max read request %d", maxReq))
	}
	l := min(maxReq, left)
	if room := units.ByteSize(4096 - uint64(addr)%4096); l > room {
		l = room
	}
	return l
}

// ReadReq is what a completer keeps of an MRd once it has released the
// request packet: where to read, how much, and whom to answer.
type ReadReq struct {
	Addr      Addr
	ReadLen   units.ByteSize
	Requester DeviceID
	Tag       uint8
	Txn       uint64
}

// ReadReq returns the fields of an MRd its completions need.
func (t *TLP) ReadReq() ReadReq {
	if t.Kind != MRd {
		panic(fmt.Sprintf("pcie: ReadReq of non-MRd %v", t))
	}
	return ReadReq{Addr: t.Addr, ReadLen: t.ReadLen, Requester: t.Requester, Tag: t.Tag, Txn: t.Txn}
}
