package pcie

import (
	"testing"

	"tca/internal/sim"
	"tca/internal/units"
)

// switchFixture wires root—switch—(devA, devB) like a CPU socket with two
// slots.
type switchFixture struct {
	eng        *sim.Engine
	sw         *Switch
	root       *sink
	devA, devB *sink
	rootPort   *Port
	portA      *Port
	portB      *Port
}

func newSwitchFixture(t *testing.T) *switchFixture {
	t.Helper()
	f := &switchFixture{eng: sim.NewEngine()}
	f.sw = NewSwitch(f.eng, "sock0", DefaultSwitchParams)
	f.root = &sink{name: "root"}
	f.devA = &sink{name: "devA"}
	f.devB = &sink{name: "devB"}
	f.rootPort = NewPort(f.root, "dn", RoleRC)
	MustConnect(f.eng, f.rootPort, f.sw.Upstream(), LinkParams{Config: LinkConfig{Gen: Gen3, Lanes: 8}})
	dA := f.sw.MustAddDownstream("slot0", Range{Base: 0x1000_0000, Size: 0x1000_0000})
	dB := f.sw.MustAddDownstream("slot1", Range{Base: 0x2000_0000, Size: 0x1000_0000})
	f.portA = NewPort(f.devA, "up", RoleEP)
	f.portB = NewPort(f.devB, "up", RoleEP)
	MustConnect(f.eng, dA, f.portA, LinkParams{Config: Gen3x16})
	MustConnect(f.eng, dB, f.portB, LinkParams{Config: Gen2x8})
	return f
}

func TestSwitchRoutesDownstreamByWindow(t *testing.T) {
	f := newSwitchFixture(t)
	f.rootPort.Send(0, &TLP{Kind: MWr, Addr: 0x1000_0040, Data: []byte{1, 2}})
	f.rootPort.Send(0, &TLP{Kind: MWr, Addr: 0x2000_0040, Data: []byte{3}})
	f.eng.Run()
	if len(f.devA.got) != 1 || f.devA.got[0].Addr != 0x1000_0040 {
		t.Fatalf("devA got %v", f.devA.got)
	}
	if len(f.devB.got) != 1 || f.devB.got[0].Addr != 0x2000_0040 {
		t.Fatalf("devB got %v", f.devB.got)
	}
	if len(f.root.got) != 0 {
		t.Fatal("root received spurious packets")
	}
}

func TestSwitchRoutesUnmatchedUpstream(t *testing.T) {
	f := newSwitchFixture(t)
	// devA writes to an address outside all downstream windows: goes to
	// the root complex (e.g. host DRAM).
	f.portA.Send(0, &TLP{Kind: MWr, Addr: 0x9000_0000, Data: []byte{7}})
	f.eng.Run()
	if len(f.root.got) != 1 || f.root.got[0].Addr != 0x9000_0000 {
		t.Fatalf("root got %v", f.root.got)
	}
}

func TestSwitchPeerToPeerBetweenDownstreamPorts(t *testing.T) {
	// The heart of §III-C: a device on one slot writes directly into
	// another slot's window without touching the root complex — the
	// GPUDirect P2P path PEACH2 uses.
	f := newSwitchFixture(t)
	f.portA.Send(0, &TLP{Kind: MWr, Addr: 0x2000_0100, Data: []byte{42}})
	f.eng.Run()
	if len(f.devB.got) != 1 || f.devB.got[0].Data[0] != 42 {
		t.Fatalf("devB got %v", f.devB.got)
	}
	if len(f.root.got) != 0 {
		t.Fatal("P2P traffic leaked to the root complex")
	}
}

func TestSwitchCompletionRoutingByLearnedID(t *testing.T) {
	f := newSwitchFixture(t)
	// devA issues a read upstream; the switch learns its return path.
	f.portA.Send(0, &TLP{Kind: MRd, Addr: 0x9000_0000, ReadLen: 8, Requester: 5, Tag: 1})
	f.eng.Run()
	if len(f.root.got) != 1 {
		t.Fatalf("root got %d packets, want the MRd", len(f.root.got))
	}
	// Root answers with a completion addressed by requester ID only.
	f.rootPort.Send(f.eng.Now(), &TLP{Kind: CplD, Requester: 5, Tag: 1, Data: make([]byte, 8), Last: true})
	f.eng.Run()
	if len(f.devA.got) != 1 || f.devA.got[0].Kind != CplD {
		t.Fatalf("devA got %v, want learned-route completion", f.devA.got)
	}
}

func TestSwitchForwardLatency(t *testing.T) {
	f := newSwitchFixture(t)
	f.rootPort.Send(0, &TLP{Kind: MWr, Addr: 0x1000_0000, Data: []byte{1}})
	f.eng.Run()
	// Total = uplink wire (25 B @ Gen3x8 ≈ 3.2ns→4ns) + forward 120 ns +
	// downlink wire. Assert the 120 ns dominates and is present.
	if f.devA.at[0] < sim.Time(120*units.Nanosecond) {
		t.Fatalf("arrival %v too early — forward latency missing", f.devA.at[0])
	}
	if f.devA.at[0] > sim.Time(200*units.Nanosecond) {
		t.Fatalf("arrival %v too late", f.devA.at[0])
	}
}

func TestSwitchRejectsOverlappingWindows(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "s", DefaultSwitchParams)
	sw.MustAddDownstream("a", Range{Base: 0x1000, Size: 0x1000})
	if _, err := sw.AddDownstream("b", Range{Base: 0x1800, Size: 0x1000}); err == nil {
		t.Fatal("overlapping downstream window accepted")
	}
}

func TestSwitchUnroutableDownstreamPanics(t *testing.T) {
	f := newSwitchFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unroutable downstream-bound packet did not panic")
		}
	}()
	f.rootPort.Send(0, &TLP{Kind: MWr, Addr: 0xFFFF_0000, Data: []byte{1}})
	f.eng.Run()
}
