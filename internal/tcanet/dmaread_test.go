package tcanet

import (
	"bytes"
	"testing"

	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/units"
)

// TestDMAReadsAllocateNothing reads host DRAM and GPU memory into the
// chip's internal memory with DescRead chains. A read's whole round trip
// — the DMAC's request record and MRd, the root complex's or GPU's reply
// and its completions, the tag table's reassembly — reuses pooled
// structs and buffers, so once they are warm a 64-read chain allocates
// exactly what a one-read chain does.
func TestDMAReadsAllocateNothing(t *testing.T) {
	eng := sim.NewEngine()
	sc, err := BuildRing(eng, 2, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 * 256
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*5 + i>>8)
	}
	node := sc.Node(0)
	host, err := node.AllocDMABuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.WriteLocal(host, want); err != nil {
		t.Fatal(err)
	}
	g := node.GPU(0)
	ptr, err := g.MemAlloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Memory().Write(uint64(ptr), want); err != nil {
		t.Fatal(err)
	}
	tok, err := g.PointerGetAttribute(ptr)
	if err != nil {
		t.Fatal(err)
	}
	bar, err := g.Pin(tok)
	if err != nil {
		t.Fatal(err)
	}
	dmac := sc.Chip(0).DMAC()
	for _, tc := range []struct {
		name string
		src  pcie.Addr
	}{{"host DRAM", host}, {"GPU BAR1", bar}} {
		chain := func(n units.ByteSize) func() {
			return func() {
				dmac.StartImmediate(eng.Now(), peach2.Descriptor{Kind: peach2.DescRead, Len: n, Src: uint64(tc.src)})
				eng.Run()
			}
		}
		chain(size)()
		got, err := sc.Chip(0).InternalMemory().ReadBytes(0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: DescRead landed corrupted bytes", tc.name)
		}
		one := testing.AllocsPerRun(20, chain(256))
		many := testing.AllocsPerRun(20, chain(size))
		if many != one {
			t.Errorf("%s: a 64-read chain allocates %.1f times, a one-read chain %.1f: reads allocate", tc.name, many, one)
		}
	}
}
