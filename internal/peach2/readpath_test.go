package peach2

import (
	"bytes"
	"testing"

	"tca/internal/memory"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// memHost stands on Port N as the host: it answers the DMAC's reads from
// its RAM with completions from its own pool, and counts the completions
// that reuse a packet an earlier reply already sent — packets the DMAC
// released after taking their bytes.
type memHost struct {
	mem    *memory.RAM
	pool   pcie.TLPPool
	sent   map[*pcie.TLP]bool
	reused int
}

func (h *memHost) DevName() string { return "host" }

func (h *memHost) Accept(now sim.Time, t *pcie.TLP, p *pcie.Port) units.Duration {
	req := t.ReadReq()
	t.Release()
	off := uint64(req.Addr)
	for left := req.ReadLen; left > 0; {
		n := min(left, pcie.DefaultMaxPayload)
		c := h.pool.Get()
		if h.sent[c] {
			h.reused++
		}
		h.sent[c] = true
		if err := h.mem.Read(off, c.PayloadBuf(int(n))); err != nil {
			panic(err)
		}
		left -= n
		off += uint64(n)
		c.Kind, c.Requester, c.Tag, c.Last = pcie.CplD, req.Requester, req.Tag, left == 0
		p.Send(now, c)
	}
	return 0
}

// readPathFixture is a chip whose Port N reaches a memHost and whose
// Port E reaches a recorder that keeps every packet it receives.
func readPathFixture(t *testing.T, src []byte) (*sim.Engine, *Chip, *memHost, *recorder) {
	t.Helper()
	eng := sim.NewEngine()
	chip := New(eng, "peach2-A", 1, DefaultParams, testPlan(0))
	host := &memHost{mem: memory.NewRAM(units.MiB), sent: make(map[*pcie.TLP]bool)}
	if err := host.mem.Write(0, src); err != nil {
		t.Fatal(err)
	}
	pcie.MustConnect(eng, pcie.NewPort(host, "dn", pcie.RoleRC), chip.Port(PortN), pcie.LinkParams{Config: pcie.Gen2x8})
	east := &recorder{name: "east"}
	pcie.MustConnect(eng, chip.Port(PortE), pcie.NewPort(east, "W", pcie.RoleRC), pcie.LinkParams{Config: pcie.Gen2x8})
	win := uint64(64 << 30)
	chip.SetRoutes([]RouteRule{{Mask: ^pcie.Addr(win - 1), Lower: 0x80_0000_0000 + pcie.Addr(win),
		Upper: 0x80_0000_0000 + pcie.Addr(win), Out: PortE}})
	return eng, chip, host, east
}

func readPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + i>>8)
	}
	return b
}

// TestPipelinedChainOwnsItsBytes runs a pipelined chain whose completion
// packets are recycled while it runs: every write it issues is checked
// only after the whole chain, so a write whose payload shared a buffer
// with a recycled completion (or with a reused tag buffer) would show the
// later completion's bytes.
func TestPipelinedChainOwnsItsBytes(t *testing.T) {
	const size = 64 * 1024
	src := readPattern(size)
	eng, chip, host, east := readPathFixture(t, src)
	dst := uint64(0x80_0000_0000 + 64<<30) // node 1's first GPU block: no flush
	chip.DMAC().StartImmediate(0, Descriptor{Kind: DescPipelined, Len: size, Src: 0, Dst: dst})
	eng.Run()
	if host.reused == 0 {
		t.Fatal("no completion packet was recycled during the chain")
	}
	got := make([]byte, size)
	moved := 0
	for _, w := range east.got {
		copy(got[uint64(w.Addr)-dst:], w.Data)
		moved += len(w.Data)
	}
	if moved != size || !bytes.Equal(got, src) {
		t.Fatalf("pipelined chain delivered %d of %d bytes, intact %t", moved, size, bytes.Equal(got, src))
	}
	if chip.DMAC().Busy() || chip.DMAC().OutstandingReads() != 0 {
		t.Fatal("chain did not finish")
	}
}
