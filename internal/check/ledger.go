// Package check is the fabric invariant checker: a TLP conservation
// ledger that proves every packet injected into the simulated fabric is
// exactly-once delivered, salvaged, or dropped with an attributed cause —
// across DLL replay, link death, and ring failover — plus a scenario
// runner (Run/RunDiff) that executes scenariogen specs under the ledger
// and differentially replays them for determinism and fault-transparency.
package check

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"tca/internal/sim"
)

// Violation is one broken fabric invariant, attributed to a packet, a
// place, and a simulation time.
type Violation struct {
	At     sim.Time
	LID    uint64
	Rule   string
	Where  string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v lid=%d at %s: %s: %s", v.At, v.LID, v.Where, v.Rule, v.Detail)
}

// tlpState is the per-packet conservation state machine.
//
//	inFlight --Delivered--> delivered
//	inFlight --Parked-----> parked --Unparked--> inFlight
//	inFlight --Dropped----> dropped
//	delivered --Parked----> parked          (salvaged copy of a packet that
//	                                         already landed: ACK was lost)
//	delivered --Delivered-> delivered       (legal only for that salvaged
//	                                         copy, payload unchanged)
//
// Everything else — a second delivery without an intervening park, a
// delivery or drop after a drop, payload or address changed in flight —
// is a violation. A packet still inFlight when the engine drains was lost
// without attribution: the invariant the whole ledger exists to catch.
type tlpState uint8

const (
	stInFlight tlpState = iota
	stParked
	stDelivered
	stDropped
)

type entry struct {
	kind      string
	bornWhere string
	addr      uint64
	hash      uint64
	born      sim.Time
	bytes     int
	delivered int

	state      tlpState
	hasPayload bool
	// parkedSinceDelivery marks the one legal route to a duplicate
	// delivery: the packet landed, its ACK was lost, and the dying link
	// salvaged (parked) the unacknowledged copy for re-injection.
	parkedSinceDelivery bool
}

// Summary is the ledger's account at quiesce.
type Summary struct {
	Born       int
	Delivered  int // packets delivered at least once
	DupSalvage int // legal duplicate deliveries (salvaged copies)
	// BenignDrops are attributed drops that lose no data (a stale
	// completion whose read already completed via another copy, a
	// salvaged duplicate that could not be re-routed).
	BenignDrops int
	// HarmfulDrops are attributed data losses (no route after failover,
	// no salvage handler): recovery failed, but conservation held.
	HarmfulDrops int
	// ParkedAtQuiesce counts packets salvaged but never re-injected —
	// held by a chip with no surviving route. Conservation holds; full
	// recovery did not.
	ParkedAtQuiesce int
}

// blockLen is the number of entries in one ledger block.
const blockLen = 1024

// Ledger implements obsv.Ledger: components report packet births, sink
// deliveries, attributed drops, and park/unpark transitions; Audit then
// proves conservation at quiesce. The zero LID is never issued, so
// instrumentation hooks can use it as "untracked".
//
// LIDs are dense, 1 to nextLID, so the entry of LID n is entry n-1 of a
// list of fixed-size blocks. A block never moves once allocated, and a
// birth allocates only when it opens a new block.
type Ledger struct {
	nextLID    uint64
	blocks     []*[blockLen]entry
	linkBytes  map[linkKey]uint64 // wire bytes per link direction
	violations []Violation
	sum        Summary
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{linkBytes: make(map[linkKey]uint64)}
}

// entry returns the entry of a born LID, or nil for LID 0 and for any LID
// past the last one born.
func (l *Ledger) entry(lid uint64) *entry {
	if lid == 0 || lid > l.nextLID {
		return nil
	}
	i := lid - 1
	return &l.blocks[i/blockLen][i%blockLen]
}

// payloadHash digests a payload for the birth-to-delivery compare. It
// folds 8 bytes at a time, then the tail byte by byte. Each step XORs
// the input into the state, multiplies by an odd constant and (for a
// word) rotates: a bijection on the state, so two payloads of one length
// that differ in any single byte always hash differently. The hash is
// never printed in a transcript; only a payload-corrupted violation shows
// it.
func payloadHash(p []byte) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325) ^ uint64(len(p))
	for ; len(p) >= 8; p = p[8:] {
		h = (h ^ binary.LittleEndian.Uint64(p)) * prime
		h = bits.RotateLeft64(h, 31)
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

func (l *Ledger) violate(at sim.Time, lid uint64, rule, where, detail string) {
	l.violations = append(l.violations, Violation{At: at, LID: lid, Rule: rule, Where: where, Detail: detail})
}

// Born implements obsv.Ledger: mint an identity for a packet crossing its
// first instrumented link.
func (l *Ledger) Born(now sim.Time, kind string, addr uint64, payload []byte, where string) uint64 {
	if l.nextLID%blockLen == 0 {
		l.blocks = append(l.blocks, new([blockLen]entry))
	}
	l.nextLID++
	*l.entry(l.nextLID) = entry{
		kind:       kind,
		addr:       addr,
		hash:       payloadHash(payload),
		hasPayload: len(payload) > 0,
		bytes:      len(payload),
		bornWhere:  where,
		born:       now,
	}
	l.sum.Born++
	return l.nextLID
}

// Delivered implements obsv.Ledger: the packet terminated at a sink. A
// nil payload means the sink consumed a request without data to compare
// (an MRd); a non-nil payload is checked against the bytes at birth.
func (l *Ledger) Delivered(now sim.Time, lid uint64, addr uint64, payload []byte, where string) {
	e := l.entry(lid)
	if e == nil {
		l.violate(now, lid, "unknown-lid", where, "delivered a packet the ledger never saw born")
		return
	}
	// Addresses legitimately change in flight (the PEACH2 conversion
	// table rewrites global TCA addresses to local bus addresses,
	// §III-E), so only the payload is an invariant; misdirection is
	// caught by the runner's end-to-end memory compare instead.
	if payload != nil && e.hasPayload {
		if h := payloadHash(payload); h != e.hash {
			l.violate(now, lid, "payload-corrupted", where,
				fmt.Sprintf("%s born at %s for %#x with hash %016x, delivered to %#x with %016x",
					e.kind, e.bornWhere, e.addr, e.hash, addr, h))
		}
	}
	switch e.state {
	case stInFlight:
		if e.delivered > 0 && !e.parkedSinceDelivery {
			l.violate(now, lid, "duplicate-delivery", where,
				fmt.Sprintf("%s delivered %d times with no salvage in between", e.kind, e.delivered+1))
		}
		if e.delivered == 0 {
			l.sum.Delivered++
		} else {
			l.sum.DupSalvage++
		}
		e.delivered++
		e.parkedSinceDelivery = false
		e.state = stDelivered
	case stDelivered:
		// No transit between two deliveries at all: the sink saw the
		// same packet twice without the fabric re-routing it.
		l.violate(now, lid, "duplicate-delivery", where,
			fmt.Sprintf("%s delivered again while already delivered", e.kind))
	case stParked:
		l.violate(now, lid, "delivered-while-parked", where,
			fmt.Sprintf("%s delivered out of a park without an unpark", e.kind))
	case stDropped:
		l.violate(now, lid, "delivered-after-drop", where,
			fmt.Sprintf("%s was already dropped", e.kind))
	}
}

// Dropped implements obsv.Ledger: the packet was discarded on purpose,
// with a cause. Dropping a packet that already landed (a salvaged copy
// that could not be re-routed) loses nothing; dropping an undelivered one
// is attributed data loss.
func (l *Ledger) Dropped(now sim.Time, lid uint64, where, cause string) {
	e := l.entry(lid)
	if e == nil {
		l.violate(now, lid, "unknown-lid", where, "dropped a packet the ledger never saw born")
		return
	}
	switch e.state {
	case stDropped:
		l.violate(now, lid, "double-drop", where, fmt.Sprintf("%s dropped twice (now: %s)", e.kind, cause))
	case stDelivered:
		l.sum.BenignDrops++
	case stParked, stInFlight:
		if e.delivered > 0 || benignCause(cause) {
			l.sum.BenignDrops++
			// The data already landed; keep the delivered terminal state.
			e.state = stDelivered
			return
		}
		l.sum.HarmfulDrops++
		e.state = stDropped
	}
}

// benignCause marks drop causes that never lose data: a stale completion
// is the loser of a retry race (or a cancelled chain's read) whose data
// either arrived via the winning copy or was abandoned with the chain.
func benignCause(cause string) bool {
	return len(cause) >= 5 && cause[:5] == "stale"
}

// Parked implements obsv.Ledger: a chip pinned the packet while waiting
// for a route (link death salvage, dead egress port).
func (l *Ledger) Parked(now sim.Time, lid uint64, where string) {
	e := l.entry(lid)
	if e == nil {
		l.violate(now, lid, "unknown-lid", where, "parked a packet the ledger never saw born")
		return
	}
	switch e.state {
	case stInFlight:
		e.state = stParked
	case stDelivered:
		// The salvaged copy of an already-delivered packet: its ACK was
		// lost, the link died, and the replay buffer handed it back.
		e.state = stParked
		e.parkedSinceDelivery = true
	case stParked:
		l.violate(now, lid, "double-park", where, fmt.Sprintf("%s parked twice", e.kind))
	case stDropped:
		l.violate(now, lid, "parked-after-drop", where, fmt.Sprintf("%s was already dropped", e.kind))
	}
}

// Unparked implements obsv.Ledger: a failover re-injected the packet.
func (l *Ledger) Unparked(now sim.Time, lid uint64, where string) {
	e := l.entry(lid)
	if e == nil {
		l.violate(now, lid, "unknown-lid", where, "unparked a packet the ledger never saw born")
		return
	}
	if e.state != stParked {
		l.violate(now, lid, "unparked-not-parked", where, fmt.Sprintf("%s was not parked", e.kind))
		return
	}
	e.state = stInFlight
}

// linkKey names one direction of one link.
type linkKey struct{ link, dir string }

// LinkBytes implements obsv.Ledger: accumulate wire bytes per link and
// direction, cross-checked at quiesce against the link's own counters.
func (l *Ledger) LinkBytes(link, dir string, wireBytes uint64) {
	l.linkBytes[linkKey{link, dir}] += wireBytes
}

// LinkTotal reports the accumulated wire bytes for one link direction.
func (l *Ledger) LinkTotal(link, dir string) uint64 { return l.linkBytes[linkKey{link, dir}] }

// linkKeys returns every link direction the ledger saw, ordered by the
// rendered "link|dir" string. That is not the (link, dir) tuple order
// when one link name is a prefix of another, and the transcript's link
// lines follow it.
func (l *Ledger) linkKeys() []linkKey {
	type rendered struct {
		s string
		k linkKey
	}
	rs := make([]rendered, 0, len(l.linkBytes))
	for k := range l.linkBytes {
		rs = append(rs, rendered{k.link + "|" + k.dir, k})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].s < rs[j].s })
	keys := make([]linkKey, len(rs))
	for i, r := range rs {
		keys[i] = r.k
	}
	return keys
}

// Audit closes the books at quiesce: every packet must have reached a
// terminal state. A packet still parked was salvaged (conservation holds,
// recovery didn't finish); a packet still in flight simply vanished — the
// silent loss the ledger exists to expose. Audit appends to the violation
// list and returns the final summary; call it once, after the engine
// drains.
func (l *Ledger) Audit(end sim.Time) Summary {
	for lid := uint64(1); lid <= l.nextLID; lid++ {
		e := l.entry(lid)
		switch e.state {
		case stParked:
			l.sum.ParkedAtQuiesce++
		case stInFlight:
			l.violate(end, lid, "lost-without-attribution", e.bornWhere,
				fmt.Sprintf("%s for %#x (%d bytes) born at t=%v never delivered, dropped, or salvaged",
					e.kind, e.addr, e.bytes, e.born))
		}
	}
	return l.sum
}

// Violations returns every violation recorded so far.
func (l *Ledger) Violations() []Violation { return l.violations }
