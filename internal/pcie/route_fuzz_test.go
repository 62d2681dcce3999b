package pcie

import (
	"encoding/binary"
	"testing"
)

// FuzzRoute cross-checks AddressMap's sorted binary-search routing
// against a reference linear scan. The map is the routing primitive under
// every switch window, BAR assignment and the TCA global map, so its
// lookup must agree with the obvious O(n) implementation for arbitrary
// (and arbitrarily misaligned) window geometry.
//
// Input encoding: pairs of (base, sizeSelector) uint64s followed by one
// trailing probe address. Each sizeSelector's low 6 bits pick a
// power-of-two window size (mask + bounds style, like PEACH2's
// compare-only rules); bit 6 set instead derives an odd, unaligned size,
// so both the aligned fast path and crooked windows get exercised.
// Overlapping windows are expected to be rejected by Add; accepted ones
// form the reference rule list.
func FuzzRoute(f *testing.F) {
	// Seed corpus: the Fig. 4 geometry — a 512 GiB region at
	// 0x80_0000_0000 split into 16 × 32 GiB node windows — plus probes
	// at window edges, and a deliberately unaligned runt window.
	const regionBase = uint64(0x80_0000_0000)
	const nodeWin = uint64(32) << 30
	seed := make([]byte, 0, 8*9)
	for node := uint64(0); node < 4; node++ {
		seed = binary.LittleEndian.AppendUint64(seed, regionBase+node*nodeWin)
		seed = binary.LittleEndian.AppendUint64(seed, 35) // 1<<35 = 32 GiB
	}
	f.Add(append(seed, binary.LittleEndian.AppendUint64(nil, regionBase+nodeWin-1)...))
	f.Add(append(seed, binary.LittleEndian.AppendUint64(nil, regionBase+4*nodeWin)...))
	f.Add([]byte{})
	runt := binary.LittleEndian.AppendUint64(nil, 0x1000)
	runt = binary.LittleEndian.AppendUint64(runt, 64|3) // unaligned size path
	runt = binary.LittleEndian.AppendUint64(runt, 0x1001)
	f.Add(runt)

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Cap the decoded rule count: the reference scan is O(n²) by
		// design, and an unbounded mutated input would turn that into a
		// spurious per-input timeout rather than a routing bug.
		if len(raw) > 64*16+8 {
			raw = raw[:64*16+8]
		}
		words := make([]uint64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			words = append(words, binary.LittleEndian.Uint64(raw[i:]))
		}
		var probe Addr
		if len(words)%2 == 1 {
			probe = Addr(words[len(words)-1])
			words = words[:len(words)-1]
		}

		var m AddressMap
		var reference []routeRule // linear-scan ground truth, insertion order
		for i := 0; i+1 < len(words); i += 2 {
			r := Range{Base: Addr(words[i]), Size: windowSize(words[i+1])}
			err := m.Add(r, i/2)
			overlaps := false
			for _, e := range reference {
				if e.r.Overlaps(r) {
					overlaps = true
					break
				}
			}
			wraps := r.End() < r.Base
			switch {
			case r.Size == 0 || wraps || overlaps:
				if err == nil {
					t.Fatalf("Add(%v) accepted an empty/wrapping/overlapping window", r)
				}
			case err != nil:
				t.Fatalf("Add(%v) rejected a valid window: %v", r, err)
			default:
				reference = append(reference, routeRule{r: r, target: i / 2})
			}
		}
		if len(m.entries) != len(reference) {
			t.Fatalf("map has %d windows, reference has %d", len(m.entries), len(reference))
		}

		for _, a := range probes(probe, reference) {
			wantTarget, wantRange, wantOK := -1, Range{}, false
			for _, e := range reference {
				if e.r.Contains(a) {
					wantTarget, wantRange, wantOK = e.target, e.r, true
					break
				}
			}
			got, gotRange, gotOK := m.Lookup(a)
			if gotOK != wantOK {
				t.Fatalf("Lookup(%v) ok=%t, linear scan says %t", a, gotOK, wantOK)
			}
			if !wantOK {
				continue
			}
			if got.(int) != wantTarget || gotRange != wantRange {
				t.Fatalf("Lookup(%v) = (%v, %v), linear scan says (%v, %v)",
					a, got, gotRange, wantTarget, wantRange)
			}
			if !gotRange.Contains(a) {
				t.Fatalf("Lookup(%v) returned window %v that does not contain it", a, gotRange)
			}
		}
	})
}

// windowSize decodes the fuzzer's size selector: low 6 bits pick a
// power-of-two exponent (mask-style aligned windows); bit 6 switches to
// an odd size derived from the selector so unaligned windows appear too.
func windowSize(sel uint64) uint64 {
	exp := sel & 63
	if exp > 48 {
		exp = 48 // keep Base+Size from always wrapping
	}
	size := uint64(1) << exp
	if sel&64 != 0 {
		size = (sel >> 7) % (1 << 40)
	}
	return size
}

type routeRule struct {
	r      Range
	target int
}

// probes expands the fuzzed address into the interesting neighbors: the
// address itself plus every accepted window's edges (first, last, one
// past the end), where binary search off-by-ones live.
func probes(a Addr, reference []routeRule) []Addr {
	out := []Addr{a, a + 1, a - 1}
	for _, e := range reference {
		out = append(out, e.r.Base, e.r.End()-1, e.r.End())
	}
	return out
}
