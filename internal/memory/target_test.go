package memory

import (
	"bytes"
	"testing"

	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// requester is a test device that issues reads/writes to a Target across a
// link and collects completions.
type requester struct {
	name string
	eng  *sim.Engine
	port *pcie.Port
	tags *pcie.TagTable
}

func newRequester(eng *sim.Engine, name string) *requester {
	r := &requester{name: name, eng: eng, tags: pcie.NewTagTable(32)}
	r.port = pcie.NewPort(r, "dn", pcie.RoleRC)
	return r
}

func (r *requester) DevName() string { return r.name }

func (r *requester) Accept(now sim.Time, t *pcie.TLP, p *pcie.Port) units.Duration {
	if t.Kind != pcie.CplD && t.Kind != pcie.Cpl {
		panic("requester got non-completion")
	}
	if err := r.tags.HandleCompletion(t); err != nil {
		panic(err)
	}
	return 0
}

// read issues a (possibly split) read and returns the data plus finish time
// after running the engine to idle.
func (r *requester) read(addr pcie.Addr, n units.ByteSize) ([]byte, sim.Time) {
	var out []byte
	chunks := pcie.SplitRead(addr, n, 512)
	done := 0
	for _, c := range chunks {
		c := c
		tag, ok := r.tags.Alloc(c.ReadLen, func(data []byte) {
			out = append(out, data...)
			done++
		})
		if !ok {
			panic("tag exhaustion in test")
		}
		c.Tag = tag
		c.Requester = 1
		r.port.Send(r.eng.Now(), c)
	}
	end, _ := r.eng.Run()
	if done != len(chunks) {
		panic("not all read chunks completed")
	}
	return out, end
}

func targetFixture(t *testing.T, params targetParams) (*sim.Engine, *requester, *target) {
	t.Helper()
	eng := sim.NewEngine()
	ram := NewRAM(1 * units.MiB)
	tgt := newTarget(eng, "dram", ram, 0x1_0000_0000, params)
	req := newRequester(eng, "cpu")
	tport := pcie.NewPort(tgt, "up", pcie.RoleEP)
	pcie.MustConnect(eng, req.port, tport, pcie.LinkParams{Config: pcie.Gen2x8})
	return eng, req, tgt
}

func TestTargetWriteLandsInRAM(t *testing.T) {
	eng, req, tgt := targetFixture(t, targetParams{})
	data := []byte("peach2 put")
	for _, w := range pcie.SplitWrite(0x1_0000_0040, data, 256, false) {
		req.port.Send(0, w)
	}
	eng.Run()
	got, err := tgt.ram.ReadBytes(0x40, units.ByteSize(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("RAM contains %q, want %q", got, data)
	}
	wr, _, in, _ := tgt.writeTLPs, tgt.readTLPs, tgt.bytesIn, tgt.bytesOut
	if wr != 1 || in != units.ByteSize(len(data)) {
		t.Fatalf("stats: writes=%d bytesIn=%d", wr, in)
	}
}

func TestTargetReadRoundTrip(t *testing.T) {
	eng, req, tgt := targetFixture(t, targetParams{ReadLatency: 200 * units.Nanosecond})
	want := make([]byte, 1500)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := tgt.ram.Write(0x200, want); err != nil {
		t.Fatal(err)
	}
	_ = eng
	got, _ := req.read(0x1_0000_0200, units.ByteSize(len(want)))
	if !bytes.Equal(got, want) {
		t.Fatal("read data does not match RAM contents")
	}
}

func TestTargetReadLatencyApplied(t *testing.T) {
	_, req, _ := targetFixture(t, targetParams{ReadLatency: 500 * units.Nanosecond})
	_, end := req.read(0x1_0000_0000, 4)
	// Request wire (~6ns) + 500ns latency + completion wire (~7ns).
	if end < sim.Time(500*units.Nanosecond) || end > sim.Time(600*units.Nanosecond) {
		t.Fatalf("read finished at %v, want ~510ns", end)
	}
}

func TestTargetReadServiceSerializes(t *testing.T) {
	// Two concurrent reads with 300 ns service must finish ≥600 ns apart
	// in aggregate — modelling the GPU BAR translation bottleneck.
	eng, req, tgt := targetFixture(t, targetParams{ReadService: 300 * units.Nanosecond})
	_ = tgt
	var finished []sim.Time
	for i := 0; i < 2; i++ {
		addr := pcie.Addr(0x1_0000_0000 + i*64)
		tag, ok := req.tags.Alloc(64, func(data []byte) {
			finished = append(finished, eng.Now())
		})
		if !ok {
			t.Fatal("tag alloc failed")
		}
		req.port.Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: addr, ReadLen: 64, Tag: tag, Requester: 1})
	}
	eng.Run()
	if len(finished) != 2 {
		t.Fatalf("finished %d reads, want 2", len(finished))
	}
	gap := finished[1].Sub(finished[0])
	if gap < 290*units.Nanosecond {
		t.Fatalf("completions %v apart, want ≥~300ns (serialized service)", gap)
	}
}

func TestTargetDeepWriteQueueReturnsCreditInstantly(t *testing.T) {
	eng := sim.NewEngine()
	ram := NewRAM(1 * units.MiB)
	tgt := newTarget(eng, "gddr", ram, 0, targetParams{WriteDrain: units.Microsecond, DeepWriteQueue: true})
	req := newRequester(eng, "peach2")
	tport := pcie.NewPort(tgt, "up", pcie.RoleEP)
	l := pcie.MustConnect(eng, req.port, tport, pcie.LinkParams{Config: pcie.Gen2x8, CreditTLPs: 2})
	for i := 0; i < 8; i++ {
		req.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: pcie.Addr(i * 256), Data: make([]byte, 232)})
	}
	end, _ := eng.Run()
	// 8 × 256 B wire at 4 GB/s = 512 ns: the 1 µs drain must NOT stall
	// because the deep queue acks immediately.
	if end != sim.Time(512*units.Nanosecond) {
		t.Fatalf("deep-queue writes finished at %v, want 512ns", end)
	}
	if q := l.QueuedTLPs(req.port); q != 0 {
		t.Fatalf("%d packets still queued", q)
	}
}

func TestTargetWriteDrainBackpressures(t *testing.T) {
	eng := sim.NewEngine()
	ram := NewRAM(1 * units.MiB)
	tgt := newTarget(eng, "dram", ram, 0, targetParams{WriteDrain: units.Microsecond})
	req := newRequester(eng, "peach2")
	tport := pcie.NewPort(tgt, "up", pcie.RoleEP)
	pcie.MustConnect(eng, req.port, tport, pcie.LinkParams{Config: pcie.Gen2x8, CreditTLPs: 2})
	for i := 0; i < 4; i++ {
		req.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: pcie.Addr(i * 256), Data: make([]byte, 232)})
	}
	end, _ := eng.Run()
	// Third packet waits for the first credit (~1 µs), fourth for the
	// second: completion well past 2 µs.
	if end < sim.Time(2*units.Microsecond) {
		t.Fatalf("writes finished at %v — drain backpressure missing", end)
	}
}

func TestTargetWatch(t *testing.T) {
	eng, req, tgt := targetFixture(t, targetParams{})
	var hits []pcie.Addr
	tgt.watch(pcie.Range{Base: 0x1_0000_0100, Size: 4}, func(now sim.Time, a pcie.Addr, n units.ByteSize) {
		hits = append(hits, a)
	})
	req.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: 0x1_0000_0000, Data: make([]byte, 16)})   // miss
	req.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: 0x1_0000_0100, Data: []byte{1, 2, 3, 4}}) // hit
	req.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: 0x1_0000_00FE, Data: make([]byte, 8)})    // straddles → hit
	eng.Run()
	if len(hits) != 2 {
		t.Fatalf("watch fired %d times (%v), want 2", len(hits), hits)
	}
}

func TestTargetWindowAndBase(t *testing.T) {
	eng := sim.NewEngine()
	tgt := newTarget(eng, "x", NewRAM(4*units.KiB), 0x5000, targetParams{})
	w := tgt.window()
	if w.Base != 0x5000 || w.Size != 4096 {
		t.Fatalf("Window = %v", w)
	}
	tgt.setBase(0x9000)
	if tgt.base != 0x9000 {
		t.Fatalf("SetBase did not apply")
	}
}

func TestTargetOutOfWindowWritePanics(t *testing.T) {
	eng, req, _ := targetFixture(t, targetParams{})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-window write did not panic")
		}
	}()
	// Address below base underflows the RAM offset.
	req.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: 0x0FFF_FFFF, Data: []byte{1}})
	eng.Run()
}
