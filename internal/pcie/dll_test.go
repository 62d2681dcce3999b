package pcie

import (
	"testing"

	"tca/internal/fault"
	"tca/internal/sim"
	"tca/internal/units"
)

// TestDLLFaultFreeDeliversInOrder: an enabled DLL on a healthy link must
// deliver everything exactly once, in order.
func TestDLLFaultFreeDeliversInOrder(t *testing.T) {
	eng, _, b, pa, _, l := testLink(t, LinkParams{Config: Gen2x8, Propagation: 100 * units.Nanosecond})
	l.EnableDLL("t", nil, DefaultDLLParams())
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

// TestDLLReplayRecoversFlap: frames blackholed during a short outage must
// be replayed and delivered after the link comes back, without
// duplicates, and the injector must count the replay rounds.
func TestDLLReplayRecoversFlap(t *testing.T) {
	inj := fault.New(fault.Profile{Down: []fault.DownWindow{
		{Link: "t", At: 0, For: 2 * units.Microsecond},
	}})
	eng, _, b, pa, _, l := testLink(t, LinkParams{Config: Gen2x8, Propagation: 100 * units.Nanosecond})
	l.EnableDLL("t", inj, DLLParams{
		ReplayTimeout: 5 * units.Microsecond, // first replay lands after the flap
		MaxReplays:    8,
	})
	for i := 0; i < 4; i++ {
		pa.Send(eng.Now(), &TLP{Kind: MWr, Addr: Addr(i * 256), Data: make([]byte, 64)})
	}
	eng.Run()
	if len(b.got) != 4 {
		t.Fatalf("delivered %d, want 4", len(b.got))
	}
	for i, p := range b.got {
		if p.Addr != Addr(i*256) {
			t.Fatalf("packet %d has addr %v — replay reordered or duplicated", i, p.Addr)
		}
	}
	c := inj.Counts()
	if c.Replays == 0 {
		t.Fatal("flap recovered without any replay counted")
	}
	if c.LinkDown != 0 {
		t.Fatalf("short flap killed the link: %+v", c)
	}
	if deadFrom(l, pa) {
		t.Fatal("link dead after recoverable flap")
	}
}

// TestDLLNakTriggersReplay: a corrupted frame must be NAKed and replayed
// rather than waiting for the replay timer.
func TestDLLNakTriggersReplay(t *testing.T) {
	// Corrupt = 1.0 would corrupt the replays too; instead corrupt with
	// certainty only as long as fewer than one corruption has been drawn.
	// A flat rate can't express that, so use certainty plus a replay
	// budget and check the link dies after exactly MaxReplays+1 attempts.
	inj := fault.New(fault.Profile{Corrupt: 1})
	eng, _, b, pa, _, l := testLink(t, LinkParams{Config: Gen2x8})
	l.EnableDLL("t", inj, DLLParams{MaxReplays: 3})
	pa.Send(eng.Now(), &TLP{Kind: MWr, Addr: 0x40, Data: make([]byte, 64)})
	eng.Run()
	if len(b.got) != 0 {
		t.Fatal("always-corrupt link delivered a packet")
	}
	c := inj.Counts()
	if c.Replays != 3 {
		t.Fatalf("replays = %d, want 3 (the budget)", c.Replays)
	}
	if c.ReplayExhausted != 1 || c.LinkDown != 1 {
		t.Fatalf("link did not die after exhausting replays: %+v", c)
	}
	if !deadFrom(l, pa) {
		t.Fatal("DeadFrom false after replay exhaustion")
	}
}

// TestDLLPermanentCutSalvagesTraffic: a permanent outage must kill the
// link after the replay budget and hand every undelivered TLP to the dead
// handler in original order; later sends divert straight to the handler.
// A cut that starts after some TLPs were ACKed finds the replay buffer's
// head advanced into its ring; the salvage must still ascend, replay
// buffer first, then the credit queue.
func TestDLLPermanentCutSalvagesTraffic(t *testing.T) {
	for _, c := range []struct {
		name  string
		cutAt units.Duration
		sends int
		// firstSalvaged is the index of the oldest salvaged TLP. A TLP
		// delivered just before the cut whose ACK the cut swallowed stays
		// in the replay buffer, so it is both delivered and salvaged.
		firstSalvaged int
	}{
		// 2 TLPs occupy credits (replay buffer), 3 queue behind them.
		{"cut from the start", 0, 5, 0},
		{"cut after ACKs", 300 * units.Nanosecond, 20, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			inj := fault.New(fault.Profile{Down: []fault.DownWindow{{Link: "t", At: c.cutAt}}})
			eng, _, b, pa, _, l := testLink(t, LinkParams{Config: Gen2x8, CreditTLPs: 2})
			l.EnableDLL("t", inj, DLLParams{ReplayTimeout: units.Microsecond, MaxReplays: 2})
			var salvaged []*TLP
			var deadAt sim.Time
			l.SetDeadHandler(pa, func(now sim.Time, tlps []*TLP) {
				deadAt = now
				salvaged = append(salvaged, tlps...)
			})
			for i := 0; i < c.sends; i++ {
				pa.Send(eng.Now(), &TLP{Kind: MWr, Addr: Addr(i * 256), Data: make([]byte, 64)})
			}
			eng.Run()
			for i, p := range b.got {
				if p.Addr != Addr(i*256) {
					t.Fatalf("delivered[%d] = %v — order lost", i, p.Addr)
				}
			}
			if len(b.got) < c.firstSalvaged {
				t.Fatalf("delivered %d TLPs before the cut, want at least %d", len(b.got), c.firstSalvaged)
			}
			if want := c.sends - c.firstSalvaged; len(salvaged) != want {
				t.Fatalf("salvaged %d TLPs, want %d", len(salvaged), want)
			}
			for i, p := range salvaged {
				if want := Addr((c.firstSalvaged + i) * 256); p.Addr != want {
					t.Fatalf("salvaged[%d] = %v, want %v — order lost", i, p.Addr, want)
				}
			}
			if deadAt == 0 {
				t.Fatal("dead handler saw zero time")
			}
			// A send after death must divert to the handler, not panic or vanish.
			late := &TLP{Kind: MWr, Addr: 0xbeef00, Data: make([]byte, 64)}
			pa.Send(eng.Now(), late)
			if n := len(salvaged); salvaged[n-1] != late {
				t.Fatal("post-death send not diverted to dead handler")
			}
			if got := inj.Counts().LinkDown; got != 1 {
				t.Fatalf("LinkDown = %d, want 1", got)
			}
		})
	}
}

// TestDLLBackpressureByReplayBuffer: a full replay buffer must queue new
// sends (like credit exhaustion) and drain them as ACKs release entries.
func TestDLLBackpressureByReplayBuffer(t *testing.T) {
	eng, _, b, pa, _, l := testLink(t, LinkParams{Config: Gen2x8, CreditTLPs: 32})
	l.EnableDLL("t", nil, DLLParams{ReplayBufferTLPs: 2})
	for i := 0; i < 10; i++ {
		pa.Send(eng.Now(), &TLP{Kind: MWr, Addr: Addr(i * 256), Data: make([]byte, 64)})
	}
	if q := l.QueuedTLPs(pa); q != 8 {
		t.Fatalf("queued %d behind a 2-deep replay buffer, want 8", q)
	}
	eng.Run()
	if len(b.got) != 10 {
		t.Fatalf("delivered %d, want 10", len(b.got))
	}
	for i, p := range b.got {
		if p.Addr != Addr(i*256) {
			t.Fatalf("packet %d has addr %v — reordered", i, p.Addr)
		}
	}
}

// TestDLLDuplexIndependence: killing traffic is per-cable — but fault
// windows blackhole both directions, and death declared by one direction
// marks both dead.
func TestDLLBothDirectionsDie(t *testing.T) {
	inj := fault.New(fault.Profile{Down: []fault.DownWindow{{Link: "t", At: 0}}})
	eng, a, b, pa, pb, l := testLink(t, LinkParams{Config: Gen2x8})
	l.EnableDLL("t", inj, DLLParams{ReplayTimeout: units.Microsecond, MaxReplays: 1})
	pa.Send(eng.Now(), &TLP{Kind: MWr, Addr: 0x100, Data: make([]byte, 64)})
	eng.Run()
	if len(a.got)+len(b.got) != 0 {
		t.Fatal("cut link delivered")
	}
	if !deadFrom(l, pa) || !deadFrom(l, pb) {
		t.Fatal("death must cover both directions of the cable")
	}
}

// TestCancelAllReleasesTags: CancelAll returns every pending tag to the
// free pool without firing callbacks, deterministically.
func TestCancelAllReleasesTags(t *testing.T) {
	tt := NewTagTable(8)
	fired := false
	for i := 0; i < 5; i++ {
		if _, ok := tt.Alloc(64, func([]byte) { fired = true }); !ok {
			t.Fatal("alloc failed")
		}
	}
	if n := tt.CancelAll(); n != 5 {
		t.Fatalf("cancelled %d, want 5", n)
	}
	if fired {
		t.Fatal("CancelAll ran a completion callback")
	}
	if tt.Outstanding() != 0 || len(tt.free) != 8 {
		t.Fatalf("outstanding=%d free=%d after CancelAll", tt.Outstanding(), len(tt.free))
	}
	// The table must still work afterwards.
	tag, ok := tt.Alloc(4, func(data []byte) { fired = len(data) == 4 })
	if !ok {
		t.Fatal("alloc after CancelAll failed")
	}
	if err := tt.HandleCompletion(&TLP{Kind: CplD, Tag: tag, Data: make([]byte, 4), Last: true}); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("completion after CancelAll did not fire")
	}
}

// deadFrom reports whether the direction out of from has been declared dead.
func deadFrom(l *Link, from *Port) bool {
	_, di := l.dir(from)
	return l.dll.dirs[di].dead
}
