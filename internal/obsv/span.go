package obsv

import (
	"fmt"

	"tca/internal/sim"
)

// Stage labels the hop a span event records — the structured replacement
// for the free-form strings the chip tracer used to emit. Stages follow a
// transaction (one PIO store or one DMA chain) through the fabric in the
// order the hardware touches it.
type Stage uint8

// Span stages.
const (
	// StageCPUStore: the CPU issued an uncached store (PIO injection).
	StageCPUStore Stage = iota
	// StageLinkTx: a packet started serializing onto a link's wire.
	StageLinkTx
	// StagePortIn: a TLP arrived at a PEACH2 port.
	StagePortIn
	// StageRoute: the routing unit picked an egress port (Note = port).
	StageRoute
	// StageConvert: Port N translated a global address to a local one.
	StageConvert
	// StagePortOut: the TLP left a PEACH2 port toward the fabric.
	StagePortOut
	// StageHostWrite: a write landed in host DRAM.
	StageHostWrite
	// StageHostRead: the root complex served a device read from DRAM.
	StageHostRead
	// StagePollSeen: the polling CPU loop observed the landed write.
	StagePollSeen
	// StageDoorbell: the DMA doorbell register store reached the DMAC.
	StageDoorbell
	// StageDMAFetch: the DMAC finished fetching its descriptor table.
	StageDMAFetch
	// StageDMAIssue: the DMAC issued one data TLP into the fabric.
	StageDMAIssue
	// StageFlushAck: the flush acknowledgement returned to the source chip.
	StageFlushAck
	// StageIRQ: the completion interrupt reached the host driver.
	StageIRQ
	// StageChainDone: the driver's completion callback ran.
	StageChainDone
	// StageReplay: a link's data-link layer retransmitted the packet
	// (replay-timeout or NAK-triggered go-back-N).
	StageReplay
	// StageLinkDown: the packet was stranded on a dead link and parked by
	// its chip for rerouting.
	StageLinkDown
	// StageFailover: a parked packet was re-injected through reprogrammed
	// route registers after the management plane degraded the ring.
	StageFailover
	// StageReadRetry: the DMAC retransmitted a read whose completion
	// timed out.
	StageReadRetry
	// StageChainError: the DMAC aborted its chain and surfaced an error
	// instead of completing.
	StageChainError
	// StageSwitch: a TLP arrived at a host PCIe switch and entered its
	// store-and-forward crossbar.
	StageSwitch
	// StageQueueEnter: the packet started waiting in a queue (credit
	// stall, replay-buffer backpressure, wire backlog, issue pacing, DRAM
	// service). Cause says what it is blocked on.
	StageQueueEnter
	// StageQueueExit: the packet left the queue it entered at the matching
	// StageQueueEnter; the enter→exit hop is pure wait time, attributed to
	// the blocking Cause.
	StageQueueExit
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageCPUStore:
		return "cpu-store"
	case StageLinkTx:
		return "link-tx"
	case StagePortIn:
		return "port-in"
	case StageRoute:
		return "route"
	case StageConvert:
		return "convert"
	case StagePortOut:
		return "port-out"
	case StageHostWrite:
		return "host-write"
	case StageHostRead:
		return "host-read"
	case StagePollSeen:
		return "poll-seen"
	case StageDoorbell:
		return "doorbell"
	case StageDMAFetch:
		return "dma-fetch"
	case StageDMAIssue:
		return "dma-issue"
	case StageFlushAck:
		return "flush-ack"
	case StageIRQ:
		return "irq"
	case StageChainDone:
		return "chain-done"
	case StageReplay:
		return "dll-replay"
	case StageLinkDown:
		return "link-down"
	case StageFailover:
		return "failover"
	case StageReadRetry:
		return "read-retry"
	case StageChainError:
		return "chain-error"
	case StageSwitch:
		return "switch-in"
	case StageQueueEnter:
		return "queue-enter"
	case StageQueueExit:
		return "queue-exit"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Cause labels what a queued packet is blocked on — the wait-edge half of
// the latency anatomy. Every StageQueueEnter/StageQueueExit pair carries
// one, so critical-path analysis can charge the whole wait to a single
// bucket instead of lumping it into the surrounding hop.
type Cause uint8

// Wait causes.
const (
	// CauseNone: the event is not a wait edge.
	CauseNone Cause = iota
	// CauseCredits: the link's per-direction credit pool is exhausted —
	// the receiver's ingress buffer has not drained.
	CauseCredits
	// CauseReplay: the DLL replay buffer is full — unacknowledged frames
	// backpressure new transmissions.
	CauseReplay
	// CauseRouteBusy: the egress wire serializer is busy with earlier
	// packets; the TLP holds a credit but waits for the wire.
	CauseRouteBusy
	// CauseChainSerialization: the DMAC's issue pipeline paces this TLP
	// behind its predecessors (one TLP per IssueInterval).
	CauseChainSerialization
	// CauseTagWait: the DMAC exhausted its outstanding-read tags; the read
	// waits for a completion to free one.
	CauseTagWait
	// CauseOutstandingRead: the root complex is serving the read from
	// DRAM; the requester waits for the completion.
	CauseOutstandingRead
	// CauseLinkDown: the packet waited out a dead link until failover
	// re-injected it.
	CauseLinkDown
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseCredits:
		return "credits-exhausted"
	case CauseReplay:
		return "dll-replay"
	case CauseRouteBusy:
		return "route-busy"
	case CauseChainSerialization:
		return "chain-serialization"
	case CauseTagWait:
		return "tag-wait"
	case CauseOutstandingRead:
		return "outstanding-read"
	case CauseLinkDown:
		return "link-down"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// Event is one typed span record. Fields are plain values — no formatted
// strings are built on the recording path.
type Event struct {
	At    sim.Time `json:"at_ps"`
	Txn   uint64   `json:"txn"`
	Stage Stage    `json:"stage"`
	// Where names the component ("peach2-1", "node0", "node0.rc", a link).
	Where string `json:"where"`
	// Port is the port label when the stage concerns one ("N", "E", ...).
	Port string `json:"port,omitempty"`
	// Addr is the packet's bus address when one applies.
	Addr uint64 `json:"addr,omitempty"`
	// Note carries a static detail string (an egress port, a class).
	Note string `json:"note,omitempty"`
	// Cause is the blocked-on cause for queue-enter/queue-exit wait edges
	// (CauseNone everywhere else).
	Cause Cause `json:"cause,omitempty"`
}

// String formats the event for human-readable dumps (tcaring, tcatrace).
func (e Event) String() string {
	s := fmt.Sprintf("txn=%d %-10s %-14s", e.Txn, e.Stage, e.Where)
	if e.Port != "" {
		s += " port=" + e.Port
	}
	if e.Addr != 0 {
		s += fmt.Sprintf(" addr=%#x", e.Addr)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	if e.Cause != CauseNone {
		s += " blocked-on=" + e.Cause.String()
	}
	return s
}

// Recorder collects span events into a bounded ring, evicting the oldest
// when full, and allocates transaction IDs. The nil recorder is a valid
// disabled recorder: Record is a no-op and NextTxn returns 0, the "not
// traced" transaction ID.
//
// A Recorder has a single writer and no lock: the goroutine that runs the
// engine it instruments calls Record and NextTxn, and every reader
// (Events, TxnEvents, Total, Evicted) runs on that goroutine after Run
// returns, or on another goroutine that received the finished run over a
// channel or another happens-before edge.
type Recorder struct {
	events  []Event
	next    int
	full    bool
	total   uint64
	evicted uint64
	txn     uint64
	// mEvicted mirrors the eviction count into the metrics registry when
	// the recorder is part of a Set, so snapshot exports surface ring
	// truncation without consulting the recorder (nil when unattached).
	mEvicted *Counter
}

// NewRecorder creates a recorder retaining up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("obsv: recorder capacity %d", capacity))
	}
	return &Recorder{events: make([]Event, capacity)}
}

// NextTxn allocates a fresh nonzero transaction ID, or 0 when disabled —
// TLPs with Txn 0 record no spans anywhere.
func (r *Recorder) NextTxn() uint64 {
	if r == nil {
		return 0
	}
	r.txn++
	return r.txn
}

// Record appends one event. Events with Txn 0 are dropped: an instrumented
// component on an untraced packet records nothing.
func (r *Recorder) Record(ev Event) {
	if r == nil || ev.Txn == 0 {
		return
	}
	if r.full {
		// Overwriting the oldest retained event: count the eviction so
		// breakdown consumers can tell a truncated span from a short one.
		r.evicted++
		r.mEvicted.Inc()
	}
	r.events[r.next] = ev
	r.next++
	r.total++
	if r.next == len(r.events) {
		r.next = 0
		r.full = true
	}
}

// Evicted reports how many events the ring has silently dropped to make
// room for newer ones. A nonzero count means breakdowns of early
// transactions may be truncated.
func (r *Recorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return r.evicted
}

// attachMetrics mirrors the recorder's eviction count into reg as the
// span_evictions counter, so every snapshot export carries it.
func (r *Recorder) attachMetrics(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mEvicted = reg.Counter("span_evictions", "recorder")
}

// Total reports how many events were ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.full {
		return append([]Event(nil), r.events[:r.next]...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// TxnEvents returns the retained events of one transaction, oldest-first.
func (r *Recorder) TxnEvents(txn uint64) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Txn == txn {
			out = append(out, ev)
		}
	}
	return out
}
