package pcie

// This file is the TLP free-list pool — the first consumer guarded by the
// poolsafety analyzer (internal/analysis/poolsafety). The lifecycle
// discipline it enforces statically:
//
//   - A TLP obtained from TLPPool.Get is owned by exactly one party at a
//     time; ownership transfers with the pointer (into a scheduled action,
//     a port Send, a device Accept).
//   - The party that terminates the packet (a sink: host DRAM, GPU memory,
//     chip-internal write, the completion handler) calls Release exactly
//     once. Releasing hands the struct and its payload scratch buffer back
//     for reuse; the sink must not touch any field afterwards.
//   - A party that stores the pointer somewhere that outlives normal
//     delivery — the DLL replay buffer, the chip's parked-packet list —
//     calls Pin first, which detaches the TLP from its pool so a later
//     Release is a no-op and the long-lived alias stays valid.
//
// Release and Pin are safe on any *TLP: packets built with plain composite
// literals (SplitWrite, tests) have no pool and both calls
// are no-ops, so sinks can release unconditionally.

import "tca/internal/freelist"

// TLPPool is a LIFO free list of TLP values. It is not safe for concurrent
// use: a pool belongs to one engine's single-threaded event loop, and every
// model entity that produces packets (host node, PEACH2 chip) owns its own.
// Recycling is cross-entity within an engine — a packet released at its
// sink returns to the pool of the entity that produced it.
type TLPPool struct {
	free freelist.List[TLP]
}

// Get returns a zeroed TLP owned by the pool. The caller fills the public
// fields (payloads via SetPayload to reuse the retained scratch buffer, or
// by assigning Data directly when the bytes already have an owner) and
// hands the packet into the fabric; the sink releases it.
func (p *TLPPool) Get() *TLP {
	t := p.free.Get()
	t.pool = p
	return t
}

// SetPayload copies data into the TLP's retained scratch buffer and points
// Data at it. The copy decouples the packet from the caller's buffer; the
// scratch capacity survives Release, so steady-state traffic of a stable
// payload size allocates nothing.
func (t *TLP) SetPayload(data []byte) {
	t.scratch = append(t.scratch[:0], data...)
	t.Data = t.scratch
}

// PayloadBuf points Data at n bytes of the retained scratch buffer and
// returns them for the caller to fill in place: SetPayload without the
// source copy, for a producer that reads its bytes straight into the
// packet.
func (t *TLP) PayloadBuf(n int) []byte {
	if cap(t.scratch) < n {
		t.scratch = make([]byte, n)
	}
	t.Data = t.scratch[:n]
	return t.Data
}

// Pooled reports whether t is currently owned by a pool — true only between
// Get and the matching Release/Pin. A router may mutate a pooled packet in
// place (it holds the only reference); an unpooled packet must be copied
// because its creator may retain it.
func (t *TLP) Pooled() bool { return t.pool != nil }

// Release returns t to the pool it came from, zeroing every public field
// but keeping the payload scratch capacity. No-op for unpooled or pinned
// packets, and for a second Release of the same packet — though poolsafety
// flags the latter statically, the runtime guard keeps the free list
// uncorrupted even if one slips through.
func (t *TLP) Release() {
	p := t.pool
	if p == nil {
		return
	}
	sc := t.scratch[:0]
	p.free.Put(t)
	t.scratch = sc
}

// Pin detaches t from its pool: a later Release becomes a no-op and the
// struct is never recycled. Callers that park a pointer beyond the normal
// delivery lifetime (DLL replay buffers, link-death salvage) pin first so
// the long-lived alias can never observe a reused packet.
func (t *TLP) Pin() { t.pool = nil }
