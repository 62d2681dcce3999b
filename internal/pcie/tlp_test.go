package pcie

import (
	"bytes"
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
	tlps := SplitRead(Addr(4096-64), 1024, 512)
	if tlps[0].ReadLen != 64 {
		t.Fatalf("first read len = %d, want 64 (page clamp)", tlps[0].ReadLen)
	}
	var total units.ByteSize
	next := Addr(4096 - 64)
	for i, p := range tlps {
		if p.Kind != MRd {
			t.Fatalf("TLP %d kind = %v", i, p.Kind)
		}
		if p.Addr != next {
			t.Fatalf("TLP %d addr = %v, want %v", i, p.Addr, next)
		}
		if p.ReadLen > 512 {
			t.Fatalf("TLP %d read len %d exceeds max", i, p.ReadLen)
		}
		next += Addr(p.ReadLen)
		total += p.ReadLen
	}
	if total != 1024 {
		t.Fatalf("total read length = %d, want 1024", total)
	}
	if !tlps[len(tlps)-1].Last {
		t.Fatal("final read TLP not marked Last")
	}
}

func TestSplitCompletion(t *testing.T) {
	req := &TLP{Kind: MRd, ReadLen: 700, Requester: 7, Tag: 3}
	data := make([]byte, 700)
	for i := range data {
		data[i] = byte(i * 3)
	}
	cpls := SplitCompletion(req, data, 256)
	var rebuilt []byte
	for i, c := range cpls {
		if c.Kind != CplD {
			t.Fatalf("completion %d kind = %v", i, c.Kind)
		}
		if c.Requester != 7 || c.Tag != 3 {
			t.Fatalf("completion %d lost requester/tag: %+v", i, c)
		}
		if (c.Last) != (i == len(cpls)-1) {
			t.Fatalf("completion %d Last = %t", i, c.Last)
		}
		rebuilt = append(rebuilt, c.Data...)
	}
	if !bytes.Equal(rebuilt, data) {
		t.Fatal("completions do not reassemble to read data")
	}
}

func TestSplitCompletionZeroLength(t *testing.T) {
	req := &TLP{Kind: MRd, ReadLen: 1, Requester: 2, Tag: 9}
	cpls := SplitCompletion(req, nil, 256)
	if len(cpls) != 1 || cpls[0].Kind != Cpl || !cpls[0].Last {
		t.Fatalf("zero-length completion = %+v, want single Last Cpl", cpls)
	}
}

func TestSplitCompletionPanicsOnNonRead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for SplitCompletion of MWr")
		}
	}()
	SplitCompletion(&TLP{Kind: MWr, Data: []byte{1}}, []byte{1}, 256)
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
