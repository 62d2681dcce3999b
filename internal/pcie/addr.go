package pcie

import (
	"fmt"
	"sort"
)

// Addr is a 64-bit PCI Express bus address. The TCA architecture's central
// trick is that one large, aligned window of this space is shared by a whole
// sub-cluster (Fig. 4 of the paper).
type Addr uint64

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%012x", uint64(a)) }

// Range is a half-open address window [Base, Base+Size).
type Range struct {
	Base Addr
	Size uint64
}

// End reports the first address past the window.
func (r Range) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the window.
func (r Range) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// ContainsRange reports whether the whole of s falls inside r.
func (r Range) ContainsRange(s Range) bool {
	return s.Base >= r.Base && s.End() <= r.End() && s.Size <= r.Size
}

// Overlaps reports whether the two windows share any address.
func (r Range) Overlaps(s Range) bool {
	return r.Size > 0 && s.Size > 0 && r.Base < s.End() && s.Base < r.End()
}

// String formats like "[0x...8000000000 +512GiB)".
func (r Range) String() string {
	return fmt.Sprintf("[%v +0x%x)", r.Base, r.Size)
}

// AddressMap routes addresses to named targets — the model for a PCIe
// switch's downstream windows, a root complex's BAR assignments, and the
// TCA global map. Ranges must not overlap.
type AddressMap struct {
	entries []mapEntry
}

type mapEntry struct {
	r      Range
	target any
}

// Add registers target for window r. It returns an error if r is empty or
// overlaps an existing window.
func (m *AddressMap) Add(r Range, target any) error {
	if r.Size == 0 {
		return fmt.Errorf("pcie: empty address range %v", r)
	}
	if r.End() < r.Base {
		return fmt.Errorf("pcie: address range %v wraps the 64-bit space", r)
	}
	for _, e := range m.entries {
		if e.r.Overlaps(r) {
			return fmt.Errorf("pcie: range %v overlaps existing %v", r, e.r)
		}
	}
	m.entries = append(m.entries, mapEntry{r: r, target: target})
	sort.Slice(m.entries, func(i, j int) bool { return m.entries[i].r.Base < m.entries[j].r.Base })
	return nil
}

// Lookup returns the target whose window contains a, or (nil, Range{},
// false) when the address is unmapped.
func (m *AddressMap) Lookup(a Addr) (any, Range, bool) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].r.End() > a })
	if i < len(m.entries) && m.entries[i].r.Contains(a) {
		return m.entries[i].target, m.entries[i].r, true
	}
	return nil, Range{}, false
}
