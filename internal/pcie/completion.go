package pcie

import (
	"fmt"

	"tca/internal/units"
)

// TagTable tracks outstanding non-posted requests for one requester: it
// hands out PCIe tags, accumulates the (possibly split) completions, and
// fires a callback when the last completion lands. The table's capacity is
// the device's maximum number of outstanding reads — a first-order
// determinant of read bandwidth (the paper's 830 MB/s GPU-read ceiling is a
// tag-starvation effect).
type TagTable struct {
	free    []uint8
	pending map[uint8]*pendingRead
}

type pendingRead struct {
	want units.ByteSize
	buf  []byte
	done func(data []byte)
}

// NewTagTable creates a table with capacity tags (1..256).
func NewTagTable(capacity int) *TagTable {
	if capacity < 1 || capacity > 256 {
		panic(fmt.Sprintf("pcie: tag table capacity %d out of range [1,256]", capacity))
	}
	t := &TagTable{pending: make(map[uint8]*pendingRead, capacity)}
	for i := capacity - 1; i >= 0; i-- {
		t.free = append(t.free, uint8(i))
	}
	return t
}

// Alloc reserves a tag for a read expecting want bytes; done runs when the
// final completion arrives. ok is false when all tags are outstanding — the
// caller must retry after a completion frees one.
func (t *TagTable) Alloc(want units.ByteSize, done func(data []byte)) (tag uint8, ok bool) {
	if want <= 0 {
		panic(fmt.Sprintf("pcie: Alloc for non-positive read length %d", want))
	}
	if done == nil {
		panic("pcie: Alloc with nil completion callback")
	}
	if len(t.free) == 0 {
		return 0, false
	}
	tag = t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.pending[tag] = &pendingRead{want: want, done: done}
	return tag, true
}

// HandleCompletion consumes a CplD/Cpl TLP. It returns an error for unknown
// tags or overflowing data — both indicate fabric routing bugs.
func (t *TagTable) HandleCompletion(c *TLP) error {
	if c.Kind != CplD && c.Kind != Cpl {
		return fmt.Errorf("pcie: HandleCompletion on %v", c.Kind)
	}
	p, ok := t.pending[c.Tag]
	if !ok {
		return fmt.Errorf("pcie: completion for unknown tag %d", c.Tag)
	}
	p.buf = append(p.buf, c.Data...)
	if units.ByteSize(len(p.buf)) > p.want {
		return fmt.Errorf("pcie: completion overflow on tag %d: got %d want %d", c.Tag, len(p.buf), p.want)
	}
	if c.Last {
		if units.ByteSize(len(p.buf)) != p.want {
			return fmt.Errorf("pcie: short read on tag %d: got %d want %d", c.Tag, len(p.buf), p.want)
		}
		delete(t.pending, c.Tag)
		t.free = append(t.free, c.Tag)
		p.done(p.buf)
	}
	return nil
}

// CancelAll abandons every outstanding read without running its callback
// and returns the tags to the free pool — the requester's error path when
// a chain is aborted. It returns how many reads were cancelled. Tags are
// scanned in numeric order so the free list (and therefore every later
// allocation) stays deterministic.
func (t *TagTable) CancelAll() int {
	n := 0
	for i := 0; i < 256; i++ {
		tag := uint8(i)
		if _, ok := t.pending[tag]; !ok {
			continue
		}
		delete(t.pending, tag)
		t.free = append(t.free, tag)
		n++
	}
	return n
}

// Outstanding reports the number of reads in flight.
func (t *TagTable) Outstanding() int { return len(t.pending) }
