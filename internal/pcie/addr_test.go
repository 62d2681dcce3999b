package pcie

import (
	"testing"
	"testing/quick"
)

func TestRangeContains(t *testing.T) {
	r := Range{Base: 0x1000, Size: 0x1000}
	cases := []struct {
		a    Addr
		want bool
	}{
		{0xfff, false},
		{0x1000, true},
		{0x1fff, true},
		{0x2000, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.a); got != c.want {
			t.Errorf("Contains(%v) = %t, want %t", c.a, got, c.want)
		}
	}
}

func TestRangeContainsRange(t *testing.T) {
	r := Range{Base: 0x1000, Size: 0x1000}
	if !r.ContainsRange(Range{Base: 0x1000, Size: 0x1000}) {
		t.Error("range should contain itself")
	}
	if !r.ContainsRange(Range{Base: 0x1800, Size: 0x100}) {
		t.Error("range should contain interior sub-range")
	}
	if r.ContainsRange(Range{Base: 0x1800, Size: 0x1000}) {
		t.Error("range should not contain straddling sub-range")
	}
	if r.ContainsRange(Range{Base: 0x800, Size: 0x100}) {
		t.Error("range should not contain range before it")
	}
}

func TestRangeOverlaps(t *testing.T) {
	a := Range{Base: 0x1000, Size: 0x1000}
	cases := []struct {
		b    Range
		want bool
	}{
		{Range{Base: 0x0, Size: 0x1000}, false},    // abuts below
		{Range{Base: 0x2000, Size: 0x1000}, false}, // abuts above
		{Range{Base: 0xfff, Size: 2}, true},
		{Range{Base: 0x1fff, Size: 2}, true},
		{Range{Base: 0x1400, Size: 0x100}, true},
		{Range{Base: 0x0, Size: 0x10000}, true}, // engulfs
		{Range{Base: 0x1400, Size: 0}, false},   // empty never overlaps
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %t, want %t", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("Overlaps not symmetric for %v / %v", a, c.b)
		}
	}
}

func TestAddressMapLookup(t *testing.T) {
	var m AddressMap
	mustAdd(t, &m, Range{Base: 0x1000, Size: 0x1000}, "a")
	mustAdd(t, &m, Range{Base: 0x4000, Size: 0x2000}, "b")
	mustAdd(t, &m, Range{Base: 0x0, Size: 0x800}, "c")

	cases := []struct {
		a    Addr
		want any
		ok   bool
	}{
		{0x0, "c", true},
		{0x7ff, "c", true},
		{0x800, nil, false},
		{0x1000, "a", true},
		{0x1fff, "a", true},
		{0x2000, nil, false},
		{0x4000, "b", true},
		{0x5fff, "b", true},
		{0x6000, nil, false},
	}
	for _, c := range cases {
		got, _, ok := m.Lookup(c.a)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Lookup(%v) = (%v, %t), want (%v, %t)", c.a, got, ok, c.want, c.ok)
		}
	}
}

func TestAddressMapRejectsOverlap(t *testing.T) {
	var m AddressMap
	mustAdd(t, &m, Range{Base: 0x1000, Size: 0x1000}, "a")
	if err := m.Add(Range{Base: 0x1800, Size: 0x1000}, "b"); err == nil {
		t.Fatal("overlapping Add succeeded")
	}
	if err := m.Add(Range{Base: 0x1000, Size: 0x1000}, "b"); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if len(m.entries) != 1 {
		t.Fatalf("Len = %d after rejected adds, want 1", len(m.entries))
	}
}

func TestAddressMapRejectsEmptyAndWrapping(t *testing.T) {
	var m AddressMap
	if err := m.Add(Range{Base: 0x1000, Size: 0}, "x"); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := m.Add(Range{Base: ^Addr(0) - 10, Size: 100}, "x"); err == nil {
		t.Fatal("wrapping range accepted")
	}
}

func TestAddressMapWindowsSorted(t *testing.T) {
	var m AddressMap
	mustAdd(t, &m, Range{Base: 0x4000, Size: 0x100}, 1)
	mustAdd(t, &m, Range{Base: 0x1000, Size: 0x100}, 2)
	mustAdd(t, &m, Range{Base: 0x2000, Size: 0x100}, 3)
	for i := 1; i < len(m.entries); i++ {
		if m.entries[i].r.Base < m.entries[i-1].r.Base {
			t.Fatalf("windows not sorted: %v", m.entries)
		}
	}
}

func mustAdd(t *testing.T, m *AddressMap, r Range, target any) {
	t.Helper()
	if err := m.Add(r, target); err != nil {
		t.Fatal(err)
	}
}

// Property: every address inside an added window resolves to its target;
// addresses outside all windows resolve to nothing.
func TestQuickAddressMapResolution(t *testing.T) {
	f := func(bases [4]uint16, offsets [8]uint16) bool {
		var m AddressMap
		added := map[int]Range{}
		for i, b := range bases {
			// Disjoint 64 KiB-spaced windows of 4 KiB each.
			r := Range{Base: Addr(uint64(b)<<16 + uint64(i)<<40), Size: 4096}
			if err := m.Add(r, i); err != nil {
				continue
			}
			added[i] = r
		}
		for i, r := range added {
			for _, off := range offsets {
				a := r.Base + Addr(uint64(off)%r.Size)
				got, w, ok := m.Lookup(a)
				if !ok || got.(int) != i || w != r {
					return false
				}
			}
			if _, _, ok := m.Lookup(r.End()); ok {
				// End must not resolve to this window; it may land in
				// another, so only check identity.
				got, _, _ := m.Lookup(r.End())
				if got.(int) == i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrString(t *testing.T) {
	if got := Addr(0x8000000000).String(); got != "0x008000000000" {
		t.Fatalf("Addr.String() = %q", got)
	}
}
