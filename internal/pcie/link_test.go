package pcie

import (
	"testing"

	"tca/internal/sim"
	"tca/internal/units"
)

// sink is a test device that records arrivals and answers with a fixed
// drain time.
type sink struct {
	name  string
	drain units.Duration
	got   []*TLP
	at    []sim.Time
	onTLP func(now sim.Time, t *TLP, p *Port)
}

func (s *sink) DevName() string { return s.name }

func (s *sink) Accept(now sim.Time, t *TLP, p *Port) units.Duration {
	s.got = append(s.got, t)
	s.at = append(s.at, now)
	if s.onTLP != nil {
		s.onTLP(now, t, p)
	}
	return s.drain
}

func testLink(t *testing.T, params LinkParams) (*sim.Engine, *sink, *sink, *Port, *Port, *Link) {
	t.Helper()
	eng := sim.NewEngine()
	a := &sink{name: "A"}
	b := &sink{name: "B"}
	pa := NewPort(a, "out", RoleRC)
	pb := NewPort(b, "in", RoleEP)
	l, err := Connect(eng, pa, pb, params)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, b, pa, pb, l
}

func TestConnectRejectsSameRole(t *testing.T) {
	eng := sim.NewEngine()
	a := &sink{name: "A"}
	b := &sink{name: "B"}
	if _, err := Connect(eng, NewPort(a, "x", RoleRC), NewPort(b, "y", RoleRC), LinkParams{Config: Gen2x8}); err == nil {
		t.Fatal("RC-RC link accepted; PCIe forbids it (the reason PEACH2 exists)")
	}
	if _, err := Connect(eng, NewPort(a, "x", RoleEP), NewPort(b, "y", RoleEP), LinkParams{Config: Gen2x8}); err == nil {
		t.Fatal("EP-EP link accepted")
	}
}

func TestConnectRejectsReuse(t *testing.T) {
	eng := sim.NewEngine()
	a := &sink{name: "A"}
	b := &sink{name: "B"}
	c := &sink{name: "C"}
	pa := NewPort(a, "x", RoleRC)
	pb := NewPort(b, "y", RoleEP)
	MustConnect(eng, pa, pb, LinkParams{Config: Gen2x8})
	if _, err := Connect(eng, pa, NewPort(c, "z", RoleEP), LinkParams{Config: Gen2x8}); err == nil {
		t.Fatal("connected port reused")
	}
}

func TestConnectValidatesConfig(t *testing.T) {
	eng := sim.NewEngine()
	a := &sink{name: "A"}
	b := &sink{name: "B"}
	bad := LinkParams{Config: LinkConfig{Gen: Gen2, Lanes: 5}}
	if _, err := Connect(eng, NewPort(a, "x", RoleRC), NewPort(b, "y", RoleEP), bad); err == nil {
		t.Fatal("invalid lane count accepted")
	}
}

func TestDeliveryTiming(t *testing.T) {
	// A 256-byte MWr on Gen2 x8 with 100 ns propagation must arrive at
	// serialization (280 B / 4 GB/s = 70 ns) + 100 ns = 170 ns.
	params := LinkParams{Config: Gen2x8, Propagation: 100 * units.Nanosecond}
	eng, _, b, pa, _, _ := testLink(t, params)
	pa.Send(0, &TLP{Kind: MWr, Addr: 0x1000, Data: make([]byte, 256)})
	eng.Run()
	if len(b.got) != 1 {
		t.Fatalf("delivered %d TLPs, want 1", len(b.got))
	}
	want := sim.Time(170 * units.Nanosecond)
	if b.at[0] != want {
		t.Fatalf("arrival at %v, want %v", b.at[0], want)
	}
}

func TestSerializationQueuesBackToBackPackets(t *testing.T) {
	// Two 256 B packets sent at t=0 serialize: arrivals at 70 ns and 140 ns.
	params := LinkParams{Config: Gen2x8}
	eng, _, b, pa, _, _ := testLink(t, params)
	pa.Send(0, &TLP{Kind: MWr, Addr: 0x0, Data: make([]byte, 256)})
	pa.Send(0, &TLP{Kind: MWr, Addr: 0x100, Data: make([]byte, 256)})
	eng.Run()
	if len(b.at) != 2 {
		t.Fatalf("delivered %d, want 2", len(b.at))
	}
	if b.at[0] != sim.Time(70*units.Nanosecond) || b.at[1] != sim.Time(140*units.Nanosecond) {
		t.Fatalf("arrivals %v, want [70ns 140ns]", b.at)
	}
}

func TestInOrderDelivery(t *testing.T) {
	params := LinkParams{Config: Gen2x8}
	eng, _, b, pa, _, _ := testLink(t, params)
	for i := 0; i < 50; i++ {
		pa.Send(eng.Now(), &TLP{Kind: MWr, Addr: Addr(i * 256), Data: make([]byte, 64)})
	}
	eng.Run()
	if len(b.got) != 50 {
		t.Fatalf("delivered %d, want 50", len(b.got))
	}
	for i, p := range b.got {
		if p.Addr != Addr(i*256) {
			t.Fatalf("packet %d has addr %v — reordered", i, p.Addr)
		}
	}
}

func TestFullDuplex(t *testing.T) {
	// Simultaneous opposite-direction traffic must not serialize against
	// each other.
	params := LinkParams{Config: Gen2x8}
	eng, a, b, pa, pb, _ := testLink(t, params)
	pa.Send(0, &TLP{Kind: MWr, Addr: 0x0, Data: make([]byte, 256)})
	pb.Send(0, &TLP{Kind: MWr, Addr: 0x0, Data: make([]byte, 256)})
	eng.Run()
	if len(a.at) != 1 || len(b.at) != 1 {
		t.Fatalf("deliveries %d/%d, want 1/1", len(a.at), len(b.at))
	}
	if a.at[0] != b.at[0] {
		t.Fatalf("duplex directions interfered: %v vs %v", a.at[0], b.at[0])
	}
}

func TestCreditBackpressure(t *testing.T) {
	// Receiver drains each packet in 1 µs with only 2 credits: the third
	// packet cannot even start transmission until a credit frees.
	params := LinkParams{Config: Gen2x8, CreditTLPs: 2}
	eng, _, b, pa, _, l := testLink(t, params)
	b.drain = units.Microsecond
	for i := 0; i < 4; i++ {
		pa.Send(0, &TLP{Kind: MWr, Addr: Addr(i), Data: make([]byte, 4)})
	}
	if q := l.QueuedTLPs(pa); q != 2 {
		t.Fatalf("queued = %d immediately after send, want 2", q)
	}
	eng.Run()
	if len(b.at) != 4 {
		t.Fatalf("delivered %d, want 4", len(b.at))
	}
	// First two arrive at 7ns, 14ns (28B wire each); third must wait for
	// the first credit, returning at 7ns+1µs.
	third := b.at[2]
	if third < sim.Time(units.Microsecond) {
		t.Fatalf("third packet arrived at %v — credits not enforced", third)
	}
}

func TestCreditsDoNotLimitFastSink(t *testing.T) {
	// With zero drain the credit pool never empties: 100 packets flow at
	// pure wire rate.
	params := LinkParams{Config: Gen2x8, CreditTLPs: 4}
	eng, _, b, pa, _, _ := testLink(t, params)
	for i := 0; i < 100; i++ {
		pa.Send(0, &TLP{Kind: MWr, Addr: Addr(i * 64), Data: make([]byte, 232)}) // 256 B wire
	}
	eng.Run()
	last := b.at[len(b.at)-1]
	want := sim.Time(100 * 64 * units.Nanosecond) // 100 × 256 B / 4 GB/s
	if last != want {
		t.Fatalf("last arrival %v, want %v (wire-rate)", last, want)
	}
}

func TestSendInvalidTLPPanics(t *testing.T) {
	params := LinkParams{Config: Gen2x8}
	eng, _, _, pa, _, _ := testLink(t, params)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("invalid TLP did not panic")
		}
	}()
	pa.Send(0, &TLP{Kind: MWr}) // empty write
}

func TestSendOnDisconnectedPortPanics(t *testing.T) {
	p := NewPort(&sink{name: "A"}, "x", RoleRC)
	defer func() {
		if recover() == nil {
			t.Fatal("disconnected Send did not panic")
		}
	}()
	p.Send(0, &TLP{Kind: MWr, Data: []byte{1}})
}

func TestPeerAndAccessors(t *testing.T) {
	params := LinkParams{Config: Gen2x8}
	_, a, _, pa, pb, l := testLink(t, params)
	if pa.Peer() != pb || pb.Peer() != pa {
		t.Fatal("Peer() broken")
	}
	if pa.Owner().DevName() != a.name {
		t.Fatal("Owner() broken")
	}
	if !pa.Connected() || pa.Link() != l {
		t.Fatal("Connected()/Link() broken")
	}
	if got := pa.String(); got != "A.out(RC)" {
		t.Fatalf("Port.String() = %q", got)
	}
}

func TestSetRoleOnlyWhileDisconnected(t *testing.T) {
	// PEACH2's Port S switches RC/EP before link-up (§III-D).
	p := NewPort(&sink{name: "S"}, "S", RoleEP)
	p.SetRole(RoleRC)
	if p.role != RoleRC {
		t.Fatal("SetRole did not apply")
	}
	params := LinkParams{Config: Gen2x8}
	eng := sim.NewEngine()
	MustConnect(eng, p, NewPort(&sink{name: "T"}, "S", RoleEP), params)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRole on connected port did not panic")
		}
	}()
	p.SetRole(RoleEP)
}

func TestLinkStats(t *testing.T) {
	params := LinkParams{Config: Gen2x8}
	eng, _, _, pa, pb, l := testLink(t, params)
	pa.Send(0, &TLP{Kind: MWr, Addr: 0, Data: make([]byte, 100)})
	pb.Send(0, &TLP{Kind: MRd, Addr: 0, ReadLen: 64})
	eng.Run()
	tlps, bytes := l.Stats()
	if tlps[0] != 1 || tlps[1] != 1 {
		t.Fatalf("tlps = %v, want [1 1]", tlps)
	}
	if bytes[0] != 124 || bytes[1] != 24 {
		t.Fatalf("bytes = %v, want [124 24]", bytes)
	}
}

func TestDefaultsApplied(t *testing.T) {
	params := LinkParams{Config: Gen2x8}
	_, _, _, _, _, l := testLink(t, params)
	if l.Params().MaxPayload != DefaultMaxPayload {
		t.Fatalf("MaxPayload default = %d", l.Params().MaxPayload)
	}
	if l.Params().CreditTLPs != DefaultCreditTLPs {
		t.Fatalf("CreditTLPs default = %d", l.Params().CreditTLPs)
	}
}
