package host

import (
	"bytes"
	"testing"

	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// reader stands where a PEACH2 board sits: it sends pooled MRds into the
// node and terminates their completions, copying the payload out first.
type reader struct {
	port *pcie.Port
	pool pcie.TLPPool
	id   pcie.DeviceID
	got  []byte
	cpls int
}

func (r *reader) DevName() string { return "reader" }

func (r *reader) Accept(now sim.Time, t *pcie.TLP, _ *pcie.Port) units.Duration {
	r.got = append(r.got, t.Data...)
	r.cpls++
	t.Release()
	return 0
}

func (r *reader) read(now sim.Time, a pcie.Addr, n units.ByteSize) {
	t := r.pool.Get()
	t.Kind, t.Addr, t.ReadLen, t.Requester = pcie.MRd, a, n, r.id
	r.port.Send(now, t)
}

// TestCompleterRoundTripAllocatesNothing gates the completer side of a
// device read: once the pools are warm, a 512 B read round trip to host
// DRAM and to a GPU's BAR1 allocates nothing — pooled MRd, pooled reply
// action, pooled completions filled in place from the RAM.
func TestCompleterRoundTripAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	r := &reader{id: n.AllocDeviceID()}
	r.port = pcie.NewPort(r, "up", pcie.RoleEP)
	w := n.allocWindow(uint64(DeviceWindowStride))
	if err := n.AttachDevice(0, "reader", w, r.port, pcie.LinkParams{Config: pcie.Gen2x8}); err != nil {
		t.Fatal(err)
	}
	const size = 512
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	host, err := n.AllocDMABuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.WriteLocal(host, want); err != nil {
		t.Fatal(err)
	}
	g := n.GPU(0)
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
	for _, tc := range []struct {
		name string
		addr pcie.Addr
	}{{"rc", host}, {"gpu", bar}} {
		roundTrip := func() {
			r.got, r.cpls = r.got[:0], 0
			r.read(eng.Now(), tc.addr, size)
			eng.Run()
		}
		roundTrip()
		if !bytes.Equal(r.got, want) || r.cpls != 2 {
			t.Fatalf("%s: %d completions carrying %d bytes, want 2 carrying the written %d", tc.name, r.cpls, len(r.got), size)
		}
		if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
			t.Errorf("%s: a warm %d B read round trip allocates %.1f times, want 0", tc.name, size, allocs)
		}
	}
}
