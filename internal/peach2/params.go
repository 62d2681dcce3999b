// Package peach2 implements the PCI Express Adaptive Communication Hub
// version 2 — the FPGA router chip at the heart of the TCA architecture
// (§III of the paper). A Chip has four PCIe Gen2 x8 ports (N to the host,
// E/W forming the ring, S joining two rings), a compare-only routing unit
// driven by mask/lower/upper control registers (Fig. 5), address conversion
// from the TCA global space to local bus addresses at Port N (§III-E), a
// chaining DMA controller fed by descriptor tables in host memory (§III-F2),
// internal packet-buffer memory, and a NIOS management controller stub.
package peach2

import (
	"tca/internal/pcie"
	"tca/internal/units"
)

// PortID names the chip's ports and the two internal endpoints a packet can
// terminate at.
type PortID int

// Port identifiers. N is always the host; E/W form the ring; S couples two
// rings (§III-D).
const (
	PortN PortID = iota
	PortE
	PortW
	PortS
	// PortInternal terminates at the chip itself: control registers, the
	// ack window and internal packet memory.
	PortInternal
	numPorts
)

// String names the port like the paper.
func (p PortID) String() string {
	switch p {
	case PortN:
		return "N"
	case PortE:
		return "E"
	case PortW:
		return "W"
	case PortS:
		return "S"
	case PortInternal:
		return "internal"
	default:
		return "?"
	}
}

// Register offsets inside the chip's internal block of the TCA global
// window. The host reaches them with ordinary stores through the mmapped
// BAR (the same path PIO data takes).
const (
	RegChipID    uint64 = 0x00 // read-only chip identity
	RegStatus    uint64 = 0x08 // link/DMAC status bits
	RegDMATable  uint64 = 0x10 // bus address of the descriptor table
	RegDMACount  uint64 = 0x18 // descriptor count; writing rings the doorbell
	RegDMAStatus uint64 = 0x20 // 0 idle, 1 running, 2 done

	// RegRouteBase starts eight routing-rule register quartets of
	// RouteRuleStride bytes each: mask, lower bound, upper bound, output
	// port (Fig. 5).
	RegRouteBase    uint64 = 0x100
	RouteRuleStride uint64 = 0x20
	MaxRouteRules          = 8

	// AckOffset is the flush-acknowledge landing zone: remote chips
	// write here to confirm that a flushed chain drained (§IV-B2
	// modelling; see DESIGN.md).
	AckOffset uint64 = 0x800

	// IntMemOffset is where the internal packet-buffer memory (FPGA
	// embedded RAM + DDR3 SODIMM) begins inside the internal block.
	IntMemOffset uint64 = 0x1000
)

// Params tunes one chip. Defaults reproduce the paper's measurements; see
// DESIGN.md §4 for the derivations.
type Params struct {
	// RouterLatency is the ingress-to-egress pipeline delay for a
	// forwarded packet.
	RouterLatency units.Duration
	// NConvLatency is the extra address-conversion delay at Port N
	// egress (global TCA address → local bus address, §III-E).
	NConvLatency units.Duration
	// InternalMemSize is the packet-buffer capacity (embedded RAM plus
	// the DDR3 SODIMM).
	InternalMemSize units.ByteSize
	// LinkConfig is the port configuration — four PCIe Gen2 x8 hard-IP
	// ports on the Stratix IV GX (§III-B).
	LinkConfig pcie.LinkConfig
	// DMA tunes the chaining DMA controller.
	DMA DMAParams
}

// DMAParams tunes the chaining DMA controller.
type DMAParams struct {
	// IssueInterval is the pipeline's per-TLP issue slot. 19 cycles at
	// 250 MHz = 76 ns per 256 B write ⇒ ~3.37 GB/s peak, the paper's
	// "93% of theoretical" (§IV-A1).
	IssueInterval units.Duration
	// DoorbellDecode is the delay from the doorbell register write to
	// the descriptor fetch starting.
	DoorbellDecode units.Duration
	// FetchChunk bounds each descriptor-table read request.
	FetchChunk units.ByteSize
	// MaxReadRequest bounds data-read requests (DMA read / pipelined).
	MaxReadRequest units.ByteSize
	// OutstandingReads is the DMAC's read tag count.
	OutstandingReads int
	// IRQLatency is chain completion to the host interrupt handler
	// running — included in the paper's TSC measurements (§IV-A).
	IRQLatency units.Duration
	// HostFlushDelay is the remote chip's drain delay before
	// acknowledging a flushed chain aimed at strictly-ordered host
	// memory.
	HostFlushDelay units.Duration
	// ChainTimeout is the whole-chain watchdog: a chain that has not
	// completed after this long is aborted and its error surfaced through
	// the status register instead of hanging the DMAC forever. Zero means
	// DefaultChainTimeout. Only armed when fault injection is attached.
	ChainTimeout units.Duration
}

// Recovery timers, armed only when fault injection is attached — the
// paper's perfect fabric never loses a completion. DefaultCplTimeout is
// how long the DMAC waits for a read completion before retransmitting
// the request, far above any healthy read round trip; each retry doubles
// it. DefaultCplRetries bounds the retransmissions before the chain is
// aborted with an error. DefaultChainTimeout is the chain watchdog's
// default, generous enough for multi-megabyte chains.
const (
	DefaultCplTimeout   = 20 * units.Microsecond
	DefaultCplRetries   = 3
	DefaultChainTimeout = 2 * units.Millisecond
)

// chainTimeout returns the configured or default chain watchdog.
func (p DMAParams) chainTimeout() units.Duration {
	if p.ChainTimeout > 0 {
		return p.ChainTimeout
	}
	return DefaultChainTimeout
}

// DefaultParams reproduces the paper's PEACH2 (logic version 20121112).
var DefaultParams = Params{
	RouterLatency:   100 * units.Nanosecond, // 25 cycles
	NConvLatency:    8 * units.Nanosecond,   // 2 cycles
	InternalMemSize: 256 * units.MiB,
	LinkConfig:      pcie.Gen2x8,
	DMA: DMAParams{
		IssueInterval:  76 * units.Nanosecond, // 19 cycles
		DoorbellDecode: 12 * units.Nanosecond, // 3 cycles
		FetchChunk:     512,
		// Data reads go out in completion-sized bursts; larger requests
		// would outrun the per-slot write pipeline and invert the
		// paper's write ≥ read ordering (Fig. 7).
		MaxReadRequest:   256,
		OutstandingReads: 16,
		IRQLatency:       1200 * units.Nanosecond,
		HostFlushDelay:   200 * units.Nanosecond,
	},
}

// BlockClass labels what kind of sink a conversion entry reaches; it
// decides flush behaviour (§IV-B2: host memory is strictly ordered, the
// GPU's request queue is deep and relaxed).
type BlockClass int

// Conversion-entry classes.
const (
	ClassHost BlockClass = iota
	ClassGPU
	ClassInternal
)

// String names the class.
func (c BlockClass) String() string {
	switch c {
	case ClassHost:
		return "host"
	case ClassGPU:
		return "gpu"
	case ClassInternal:
		return "internal"
	default:
		return "?"
	}
}

// ConvEntry maps one aligned block of this node's global window to a local
// bus address — the Port N address conversion of §III-E: "the base address
// of the PEACH2 chip and the address offset for the specified device are
// added to or subtracted from the destination memory address".
type ConvEntry struct {
	Global pcie.Range
	Local  pcie.Addr
	Class  BlockClass
}

// NodePlan is the chip's slice of the TCA sub-cluster address plan (Fig. 4):
// its node identity, its window of the global space, the internal block
// inside that window, the Port-N conversion table, and the callbacks that
// let it address other chips (for flush acknowledgements).
type NodePlan struct {
	NodeID int
	// GlobalWindow is this node's slice of the TCA region.
	GlobalWindow pcie.Range
	// TCARegion is the whole sub-cluster window; addresses outside it
	// are local bus addresses and always exit through Port N.
	TCARegion pcie.Range
	// Internal is this node's PEACH2-internal block (global addresses).
	Internal pcie.Range
	// Conv translates the other blocks of GlobalWindow at Port N.
	Conv []ConvEntry
	// AckAddrOf returns the global address of a node's flush-ack word.
	AckAddrOf func(nodeID int) pcie.Addr
	// NodeOfRequester resolves a requester ID to its node, for routing
	// flush acks back.
	NodeOfRequester func(id pcie.DeviceID) (int, bool)
	// ClassOf labels any global address with the device block it falls
	// in — possible without tables because every node's window is split
	// identically (Fig. 4). The DMAC uses it to decide flush semantics
	// for remote destinations.
	ClassOf func(a pcie.Addr) (BlockClass, bool)
}

// RouteRule is one entry of the compare-only routing unit (Fig. 5): a
// packet whose address ANDed with Mask falls in [Lower, Upper] leaves
// through Out. Rules are evaluated in register order after the own-node
// checks.
type RouteRule struct {
	Mask  pcie.Addr
	Lower pcie.Addr
	Upper pcie.Addr
	Out   PortID
}

// Matches reports whether the rule routes address a.
func (r RouteRule) Matches(a pcie.Addr) bool {
	masked := a & r.Mask
	return masked >= r.Lower && masked <= r.Upper
}
