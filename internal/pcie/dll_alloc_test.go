package pcie

import (
	"testing"

	"tca/internal/fault"
	"tca/internal/sim"
	"tca/internal/units"
)

// countSink is a device that only counts arrivals, so a delivery
// allocates nothing on the receiving side.
type countSink struct{ n int }

func (s *countSink) DevName() string { return "count" }

func (s *countSink) Accept(sim.Time, *TLP, *Port) units.Duration {
	s.n++
	return 10 * units.Nanosecond
}

// TestDLLFramesAllocateNothing sends caller-built TLPs over a DLL link
// whose seeded injector corrupts and drops frames. Corrupted frames and
// the gaps behind dropped ones are NAKed, go-back-N replays deliver
// duplicates the receiver re-ACKs, and a dropped last frame waits for the
// replay timer. Every frame arrival, ACK/NAK, credit drain and replay
// timer is a pooled action, so once the link is warm a 64-TLP burst
// allocates exactly what an 8-TLP burst does.
func TestDLLFramesAllocateNothing(t *testing.T) {
	eng := sim.NewEngine()
	recv := &countSink{}
	pa := NewPort(&countSink{}, "out", RoleRC)
	pb := NewPort(recv, "in", RoleEP)
	l := MustConnect(eng, pa, pb, LinkParams{Config: Gen2x8, Propagation: 100 * units.Nanosecond, CreditTLPs: 8})
	// Short outages every few microseconds blackhole ACKs of frames that
	// just landed, so the replay that follows resends them as duplicates.
	prof := fault.Profile{Seed: 3, Drop: 0.05, Corrupt: 0.05}
	for at := units.Microsecond; at < 2*units.Millisecond; at += 2500 * units.Nanosecond {
		prof.Down = append(prof.Down, fault.DownWindow{Link: "t", At: at, For: 150 * units.Nanosecond})
	}
	inj := fault.New(prof)
	l.EnableDLL("t", inj, DLLParams{MaxReplays: 1 << 20})
	tlps := make([]*TLP, 64)
	for i := range tlps {
		tlps[i] = &TLP{Kind: MWr, Addr: Addr(i * 256), Data: make([]byte, 64)}
	}
	burst := func(n int) func() {
		return func() {
			want := recv.n + n
			for _, p := range tlps[:n] {
				pa.Send(eng.Now(), p)
			}
			eng.Run()
			if recv.n != want {
				t.Fatalf("delivered %d TLPs, want %d", recv.n-want+n, n)
			}
		}
	}
	// Warm the free lists, the replay buffer, the credit queue and the
	// engine's queue up to their working sizes.
	for i := 0; i < 50; i++ {
		burst(64)()
	}
	before := inj.Counts()
	few := testing.AllocsPerRun(20, burst(8))
	many := testing.AllocsPerRun(20, burst(64))
	if many != few {
		t.Errorf("a 64-TLP burst allocates %.1f times, an 8-TLP burst %.1f: DLL frames allocate", many, few)
	}
	c := inj.Counts()
	if c.TLPsCorrupted == before.TLPsCorrupted || c.TLPsDropped == before.TLPsDropped || c.Replays == before.Replays {
		t.Fatalf("the measured bursts ran no corruption, drop or replay: %+v then %+v", before, c)
	}
	if deadFrom(l, pa) {
		t.Fatal("the link died")
	}
}
