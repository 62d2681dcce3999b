package pcie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tca/internal/sim"
	"tca/internal/units"
)

// Property: for any random mix of packet sizes and inter-send gaps, the
// link delivers every packet, in order, with total payload conserved, and
// never before the minimum possible arrival time.
func TestQuickLinkDeliveryConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		eng := sim.NewEngine()
		src := &sink{name: "src"}
		dst := &sink{name: "dst"}
		pa := NewPort(src, "out", RoleRC)
		pb := NewPort(dst, "in", RoleEP)
		params := LinkParams{
			Config:      Gen2x8,
			Propagation: units.Duration(rng.Intn(200)) * units.Nanosecond,
			CreditTLPs:  rng.Intn(8) + 1,
		}
		MustConnect(eng, pa, pb, params)
		dst.drain = units.Duration(rng.Intn(100)) * units.Nanosecond

		var sentBytes units.ByteSize
		for i := 0; i < n; i++ {
			size := rng.Intn(256) + 1
			data := make([]byte, size)
			sentBytes += units.ByteSize(size)
			eng.After(units.Duration(rng.Intn(500))*units.Nanosecond, func() {
				pa.Send(eng.Now(), &TLP{Kind: MWr, Addr: Addr(i), Data: data})
			})
		}
		eng.Run()
		if len(dst.got) != n {
			return false
		}
		var gotBytes units.ByteSize
		for i, p := range dst.got {
			gotBytes += p.PayloadLen()
			if i > 0 && dst.at[i] < dst.at[i-1] {
				return false // reordered in time
			}
		}
		return gotBytes == sentBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a fast sink, the last arrival time is exactly the wire
// serialization of all packets (plus propagation) when they are sent
// back-to-back — the link never idles with work queued.
func TestQuickLinkWorkConserving(t *testing.T) {
	f := func(nRaw uint8, sizeRaw uint8) bool {
		n := int(nRaw%20) + 1
		size := int(sizeRaw%255) + 1
		eng := sim.NewEngine()
		src := &sink{name: "src"}
		dst := &sink{name: "dst"}
		pa := NewPort(src, "out", RoleRC)
		pb := NewPort(dst, "in", RoleEP)
		MustConnect(eng, pa, pb, LinkParams{Config: Gen2x8, Propagation: 50 * units.Nanosecond})
		for i := 0; i < n; i++ {
			pa.Send(0, &TLP{Kind: MWr, Addr: Addr(i), Data: make([]byte, size)})
		}
		eng.Run()
		perPkt := units.TimeToSend(units.ByteSize(size)+TLPOverhead, Gen2x8.RawBandwidth())
		want := sim.Time(units.Duration(n)*perPkt + 50*units.Nanosecond)
		return dst.at[len(dst.at)-1] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: credits bound the number of in-flight-plus-undrained packets at
// every instant.
func TestQuickLinkCreditBound(t *testing.T) {
	f := func(credRaw, nRaw uint8) bool {
		credits := int(credRaw%6) + 1
		n := int(nRaw%40) + 2
		eng := sim.NewEngine()
		src := &sink{name: "src"}
		dst := &sink{name: "dst"}
		pa := NewPort(src, "out", RoleRC)
		pb := NewPort(dst, "in", RoleEP)
		l := MustConnect(eng, pa, pb, LinkParams{Config: Gen2x8, CreditTLPs: credits})
		dst.drain = 500 * units.Nanosecond
		ok := true
		dst.onTLP = func(now sim.Time, tlp *TLP, p *Port) {
			if d, _ := l.dir(pa); d.inFlight > credits {
				ok = false
			}
		}
		for i := 0; i < n; i++ {
			pa.Send(0, &TLP{Kind: MWr, Addr: Addr(i), Data: make([]byte, 64)})
		}
		eng.Run()
		return ok && len(dst.got) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
