package pcie

import (
	"fmt"

	"tca/internal/sim"
	"tca/internal/units"
)

// ReadSink receives the reassembled bytes of one read. A sink is usually a
// pooled record of the requester, so allocating a tag costs no closure.
type ReadSink interface {
	ReadDone(data []byte)
}

// TagTable tracks outstanding non-posted requests for one requester: it
// hands out PCIe tags, accumulates the (possibly split) completions, and
// fires a callback when the last completion lands. The table's capacity is
// the device's maximum number of outstanding reads — a first-order
// determinant of read bandwidth (the paper's 830 MB/s GPU-read ceiling is a
// tag-starvation effect).
type TagTable struct {
	free []uint8
	// pending is indexed by tag; a tag is only ever below the capacity.
	pending     []pendingRead
	outstanding int
}

// pendingRead is one tag's read. A nil sink marks a free tag.
type pendingRead struct {
	// buf is the reassembly target, want bytes long; got counts the bytes
	// the completions carried so far, overflow included.
	buf  []byte
	got  int
	sink ReadSink
	// scratch is the tag's retained reassembly buffer, which Alloc reuses
	// read after read.
	scratch []byte
}

// NewTagTable creates a table with capacity tags (1..256).
func NewTagTable(capacity int) *TagTable {
	if capacity < 1 || capacity > 256 {
		panic(fmt.Sprintf("pcie: tag table capacity %d out of range [1,256]", capacity))
	}
	t := &TagTable{pending: make([]pendingRead, capacity), free: make([]uint8, 0, capacity)}
	for i := capacity - 1; i >= 0; i-- {
		t.free = append(t.free, uint8(i))
	}
	return t
}

// Alloc reserves a tag for a read expecting want bytes; sink runs when the
// final completion arrives. The bytes are reassembled in the tag's
// retained buffer, which the tag's next read reuses: a sink that keeps
// them past ReadDone must copy them. ok is false when all tags are
// outstanding — the caller must retry after a completion frees one.
func (t *TagTable) Alloc(want units.ByteSize, sink ReadSink) (tag uint8, ok bool) {
	if want <= 0 {
		panic(fmt.Sprintf("pcie: Alloc for non-positive read length %d", want))
	}
	if len(t.free) == 0 {
		return 0, false
	}
	p := &t.pending[t.free[len(t.free)-1]]
	if cap(p.scratch) < int(want) {
		p.scratch = make([]byte, want)
	}
	return t.alloc(p.scratch[:want], sink)
}

// AllocInto is Alloc reassembling into buf, whose length is the expected
// byte count. The sink receives buf itself and may keep it.
func (t *TagTable) AllocInto(buf []byte, sink ReadSink) (tag uint8, ok bool) {
	if len(buf) == 0 {
		panic("pcie: AllocInto with an empty buffer")
	}
	if len(t.free) == 0 {
		return 0, false
	}
	return t.alloc(buf, sink)
}

func (t *TagTable) alloc(buf []byte, sink ReadSink) (uint8, bool) {
	if sink == nil {
		panic("pcie: Alloc with nil completion sink")
	}
	tag := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	p := &t.pending[tag]
	p.buf, p.got, p.sink = buf, 0, sink
	t.outstanding++
	return tag, true
}

// HandleCompletion consumes a CplD/Cpl TLP, copying its payload into the
// read's buffer. It returns an error for unknown tags or overflowing data
// — both indicate fabric routing bugs.
func (t *TagTable) HandleCompletion(c *TLP) error {
	if c.Kind != CplD && c.Kind != Cpl {
		return fmt.Errorf("pcie: HandleCompletion on %v", c.Kind)
	}
	if int(c.Tag) >= len(t.pending) || t.pending[c.Tag].sink == nil {
		return fmt.Errorf("pcie: completion for unknown tag %d", c.Tag)
	}
	p := &t.pending[c.Tag]
	if p.got+len(c.Data) > len(p.buf) {
		// An overflowed read can never complete: got stays past want.
		p.got += len(c.Data)
		return fmt.Errorf("pcie: completion overflow on tag %d: got %d want %d", c.Tag, p.got, len(p.buf))
	}
	p.got += copy(p.buf[p.got:], c.Data)
	if c.Last {
		if p.got != len(p.buf) {
			return fmt.Errorf("pcie: short read on tag %d: got %d want %d", c.Tag, p.got, len(p.buf))
		}
		buf, sink := p.buf, p.sink
		p.buf, p.sink = nil, nil
		t.free = append(t.free, c.Tag)
		t.outstanding--
		sink.ReadDone(buf)
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
	for i := range t.pending {
		p := &t.pending[i]
		if p.sink == nil {
			continue
		}
		p.buf, p.sink = nil, nil
		t.free = append(t.free, uint8(i))
		n++
	}
	t.outstanding = 0
	return n
}

// Full reports whether every tag is outstanding, so an Alloc would fail.
func (t *TagTable) Full() bool { return len(t.free) == 0 }

// Outstanding reports the number of reads in flight.
func (t *TagTable) Outstanding() int { return t.outstanding }

// MemReader is the byte store a completer answers reads from;
// memory.RAM implements it.
type MemReader interface {
	Read(off uint64, buf []byte) error
}

// SendCompletions answers req out of port with completions drawn from
// pool: CplD TLPs of at most the link's MaxPayload, the final one marked
// Last, or one Cpl for a zero-length read. Each payload is read from src
// at off straight into the TLP's retained scratch buffer, so a steady
// stream of reads allocates nothing. An error from src stops the reply.
func SendCompletions(now sim.Time, port *Port, pool *TLPPool, req ReadReq, src MemReader, off uint64) error {
	maxPayload := port.Link().Params().MaxPayload
	left := req.ReadLen
	if left == 0 {
		c := pool.Get()
		c.Kind, c.Requester, c.Tag, c.Last, c.Txn = Cpl, req.Requester, req.Tag, true, req.Txn
		port.Send(now, c)
		return nil
	}
	for left > 0 {
		n := min(maxPayload, left)
		c := pool.Get()
		if err := src.Read(off, c.PayloadBuf(int(n))); err != nil {
			c.Release()
			return err
		}
		left -= n
		off += uint64(n)
		c.Kind, c.Requester, c.Tag, c.Last, c.Txn = CplD, req.Requester, req.Tag, left == 0, req.Txn
		port.Send(now, c)
	}
	return nil
}
