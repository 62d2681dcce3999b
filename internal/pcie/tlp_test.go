package pcie

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"tca/internal/units"
)

func TestWireBytes(t *testing.T) {
	cases := []struct {
		tlp  TLP
		want units.ByteSize
	}{
		{TLP{Kind: MWr, Data: make([]byte, 256)}, 280},
		{TLP{Kind: MWr, Data: make([]byte, 4)}, 28},
		{TLP{Kind: MRd, ReadLen: 4096}, 24},
		{TLP{Kind: CplD, Data: make([]byte, 128)}, 152},
		{TLP{Kind: Cpl}, 24},
	}
	for _, c := range cases {
		if got := c.tlp.WireBytes(); got != c.want {
			t.Errorf("WireBytes(%v) = %d, want %d", c.tlp.Kind, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []*TLP{
		{Kind: MWr, Data: []byte{1}},
		{Kind: MWr, Data: make([]byte, 256)},
		{Kind: MRd, ReadLen: 64},
		{Kind: CplD, Data: []byte{1, 2}},
		{Kind: Cpl},
	}
	for _, g := range good {
		if err := g.Validate(256); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", g, err)
		}
	}
	bad := []*TLP{
		{Kind: MWr},                              // empty write
		{Kind: MWr, Data: make([]byte, 257)},     // exceeds MaxPayload
		{Kind: MRd},                              // zero-length read
		{Kind: MRd, ReadLen: 8, Data: []byte{1}}, // read with payload
		{Kind: CplD},                             // empty completion-with-data
		{Kind: Cpl, Data: []byte{1}},             // data on dataless completion
		{Kind: Kind(99)},
	}
	for _, b := range bad {
		if err := b.Validate(256); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", b)
		}
	}
}

func TestSplitWriteChunksAndBoundaries(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	// Start 100 bytes before a page boundary to force an early split.
	addr := Addr(4096 - 100)
	tlps := SplitWrite(addr, data, 256, false)

	if tlps[0].PayloadLen() != 100 {
		t.Fatalf("first TLP len = %d, want 100 (page-boundary clamp)", tlps[0].PayloadLen())
	}
	var total int
	next := addr
	var rebuilt []byte
	for i, p := range tlps {
		if p.Kind != MWr {
			t.Fatalf("TLP %d kind = %v", i, p.Kind)
		}
		if p.Addr != next {
			t.Fatalf("TLP %d addr = %v, want %v (contiguous)", i, p.Addr, next)
		}
		if p.PayloadLen() > 256 {
			t.Fatalf("TLP %d payload %d exceeds max", i, p.PayloadLen())
		}
		// No TLP crosses a 4 KiB page.
		if uint64(p.Addr)>>12 != uint64(p.Addr+Addr(p.PayloadLen())-1)>>12 {
			t.Fatalf("TLP %d crosses a page: %v+%d", i, p.Addr, p.PayloadLen())
		}
		if (p.Last) != (i == len(tlps)-1) {
			t.Fatalf("TLP %d Last = %t", i, p.Last)
		}
		next += Addr(p.PayloadLen())
		total += len(p.Data)
		rebuilt = append(rebuilt, p.Data...)
	}
	if total != len(data) || !bytes.Equal(rebuilt, data) {
		t.Fatal("split payloads do not reassemble to the original data")
	}
}

func TestSplitWriteEmpty(t *testing.T) {
	if got := SplitWrite(0x1000, nil, 256, false); got != nil {
		t.Fatalf("SplitWrite(empty) = %v, want nil", got)
	}
}

func TestSplitRead(t *testing.T) {
	addr, left := Addr(4096-64), units.ByteSize(1024)
	var lens []units.ByteSize
	for left > 0 {
		n := ReadChunk(addr, left, 512)
		if n <= 0 || n > 512 {
			t.Fatalf("chunk at %v = %d, want 1..512", addr, n)
		}
		if uint64(addr)/4096 != (uint64(addr)+uint64(n)-1)/4096 {
			t.Fatalf("chunk at %v of %d crosses a page", addr, n)
		}
		lens = append(lens, n)
		addr += Addr(n)
		left -= n
	}
	if want := []units.ByteSize{64, 512, 448}; !slices.Equal(lens, want) {
		t.Fatalf("chunks = %v, want %v (page clamp first)", lens, want)
	}
}

// memBytes is a MemReader over a plain byte slice.
type memBytes []byte

func (m memBytes) Read(off uint64, buf []byte) error {
	if off+uint64(len(buf)) > uint64(len(m)) {
		return fmt.Errorf("read [%d, %d) outside %d bytes", off, off+uint64(len(buf)), len(m))
	}
	copy(buf, m[off:])
	return nil
}

// sendCompletions answers req with SendCompletions over a fresh link and
// returns what arrived at the far end.
func sendCompletions(t *testing.T, req ReadReq, src MemReader, off uint64) ([]*TLP, error) {
	t.Helper()
	eng, _, b, pa, _, _ := testLink(t, LinkParams{Config: Gen2x8, MaxPayload: 256})
	var pool TLPPool
	err := SendCompletions(0, pa, &pool, req, src, off)
	eng.Run()
	return b.got, err
}

func TestSplitCompletion(t *testing.T) {
	data := make(memBytes, 800)
	for i := range data {
		data[i] = byte(i * 3)
	}
	cpls, err := sendCompletions(t, ReadReq{ReadLen: 700, Requester: 7, Tag: 3, Txn: 5}, data, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpls) != 3 {
		t.Fatalf("%d completions, want 3 of at most 256 bytes", len(cpls))
	}
	var rebuilt []byte
	for i, c := range cpls {
		if c.Kind != CplD {
			t.Fatalf("completion %d kind = %v", i, c.Kind)
		}
		if c.Requester != 7 || c.Tag != 3 || c.Txn != 5 {
			t.Fatalf("completion %d lost requester/tag/txn: %+v", i, c)
		}
		if (c.Last) != (i == len(cpls)-1) {
			t.Fatalf("completion %d Last = %t", i, c.Last)
		}
		if !c.Pooled() {
			t.Fatalf("completion %d is not pooled", i)
		}
		rebuilt = append(rebuilt, c.Data...)
	}
	if !bytes.Equal(rebuilt, data[100:800]) {
		t.Fatal("completions do not reassemble to read data")
	}
	if _, err := sendCompletions(t, ReadReq{ReadLen: 700}, data, 200); err == nil {
		t.Fatal("read past the source accepted")
	}
}

func TestSplitCompletionZeroLength(t *testing.T) {
	cpls, err := sendCompletions(t, ReadReq{Requester: 2, Tag: 9}, memBytes(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpls) != 1 || cpls[0].Kind != Cpl || !cpls[0].Last || cpls[0].Tag != 9 {
		t.Fatalf("zero-length completion = %+v, want single Last Cpl", cpls)
	}
}

func TestSplitCompletionPanicsOnNonRead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ReadReq of MWr")
		}
	}()
	(&TLP{Kind: MWr, Data: []byte{1}}).ReadReq()
}

// TestPooledCompletionsReuseScratch recycles completions between reads:
// the second read's payloads land in the first read's retained buffers,
// so a steady stream of reads allocates nothing.
func TestPooledCompletionsReuseScratch(t *testing.T) {
	eng, _, b, pa, _, _ := testLink(t, LinkParams{Config: Gen2x8, MaxPayload: 256})
	var src MemReader = make(memBytes, 512)
	var pool TLPPool
	read := func() {
		b.got, b.at = b.got[:0], b.at[:0]
		if err := SendCompletions(eng.Now(), pa, &pool, ReadReq{ReadLen: 512}, src, 0); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		for _, c := range b.got {
			c.Release()
		}
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("steady-state 512 B reply allocates %.1f times, want 0", allocs)
	}
}

// Property: SplitWrite then concatenation is the identity, for arbitrary
// addresses, payload sizes and data.
func TestQuickSplitWriteRoundTrip(t *testing.T) {
	f := func(addrSeed uint32, data []byte, mpShift uint8) bool {
		if len(data) == 0 {
			return true
		}
		addr := Addr(addrSeed)
		mp := units.ByteSize(64 << (mpShift % 4)) // 64..512
		tlps := SplitWrite(addr, data, mp, false)
		var rebuilt []byte
		next := addr
		for _, p := range tlps {
			if p.Addr != next || p.PayloadLen() > mp {
				return false
			}
			next += Addr(p.PayloadLen())
			rebuilt = append(rebuilt, p.Data...)
		}
		return bytes.Equal(rebuilt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStringAndPosted(t *testing.T) {
	if MWr.String() != "MWr" || MRd.String() != "MRd" || CplD.String() != "CplD" || Cpl.String() != "Cpl" {
		t.Fatal("Kind strings wrong")
	}
}
