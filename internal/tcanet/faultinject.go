package tcanet

import (
	"fmt"

	"tca/internal/fault"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
)

// Fault wiring: InjectFaults layers a data-link layer (LCRC, ACK/NAK,
// bounded replay) over every ring cable and hands the shared injector to
// every chip and host, making the fabric vulnerable to the injector's
// schedule; EnableAutoFailover closes the loop by letting each NIOS
// reprogram routes when a cable dies. Both are opt-in: an un-injected
// sub-cluster schedules exactly the same events as before and its runs
// stay byte-identical to the perfect-fabric baselines.

// RingCableName names the eastward cable out of node i — the link between
// chip i's Port E and chip i+1's Port W — as scenario specs spell it
// ("linkdown:2e:50us" cuts cable "2e").
func RingCableName(i int) string { return fmt.Sprintf("%de", i) }

// SCableName names the Port-S coupling cable between dual-ring peers i and
// i+k.
func SCableName(i int) string { return fmt.Sprintf("%ds", i) }

// InjectFaults attaches inj to every chip and host and enables the
// data-link layer on every external cable (E/W ring links and, in a dual
// ring, the S couplings), so the injector's BER/drop/corrupt/link-down
// schedule applies to them. Ring cables are named with RingCableName, S
// cables with SCableName. Each cable end's replay-exhaustion death is wired
// to the owning chip's LinkDead, which parks traffic and alerts the NIOS.
// Call once, after construction and before traffic.
func (sc *SubCluster) InjectFaults(inj *fault.Injector, dll pcie.DLLParams) {
	if sc.inj != nil {
		panic("tcanet: InjectFaults called twice")
	}
	if inj == nil {
		panic("tcanet: InjectFaults with a nil injector (build one with fault.New)")
	}
	sc.inj = inj
	sc.cutDone = make(map[int]bool)
	for _, n := range sc.nodes {
		n.AttachFaults(inj)
	}
	for i, c := range sc.chips {
		c.AttachFaults(inj)
		// Name each cable after the chip on its fixed-EP side: chip i's E
		// port owns ring cable "ie"; chip i (i < k) owns S cable "is".
		if p := c.Port(peach2.PortE); p.Connected() {
			p.Link().EnableDLL(RingCableName(i), inj, dll)
		}
		if p := c.Port(peach2.PortS); sc.dualRing && i < sc.ringSize && p.Connected() {
			p.Link().EnableDLL(SCableName(i), inj, dll)
		}
	}
	// Dead handlers go on both ends of every DLL link: the E side reports
	// to the east chip, the W/S side to its own chip.
	for _, c := range sc.chips {
		for _, id := range []peach2.PortID{peach2.PortE, peach2.PortW, peach2.PortS} {
			p := c.Port(id)
			if !p.Connected() || p.Link().DLLName() == "" {
				continue
			}
			chip, port := c, id
			p.Link().SetDeadHandler(p, func(now sim.Time, salvaged []*pcie.TLP) {
				chip.LinkDead(now, port, salvaged)
			})
		}
	}
}

// EnableAutoFailover arms every NIOS to reroute around a cable that dies
// mid-run: when a chip's data-link layer exhausts its replay budget, the
// controller maps the dead port to the cut ring link, reprograms the
// affected ring with RerouteAvoidingCut, and the chips re-inject their
// parked traffic along the surviving arc. Requires InjectFaults first.
func (sc *SubCluster) EnableAutoFailover() {
	if sc.inj == nil {
		panic("tcanet: EnableAutoFailover before InjectFaults")
	}
	for i, c := range sc.chips {
		idx := i
		c.NIOS().SetDeadLinkHandler(func(_ sim.Time, port peach2.PortID) {
			sc.failOver(idx, port)
		})
	}
}

// failOver is the management-plane reaction to chip chipIdx losing the
// cable on port: identify the cut ring link, reroute its ring once (both
// ends of a cable report the same cut; the second report is a no-op), and
// count the reroute if it fits the route registers.
func (sc *SubCluster) failOver(chipIdx int, port peach2.PortID) {
	k := sc.ringSize
	base := chipIdx / k * k
	local := chipIdx - base
	var cut int
	switch port {
	case peach2.PortE:
		cut = chipIdx
	case peach2.PortW:
		cut = base + (local-1+k)%k
	default:
		// A dead S coupling has no redundant path in the Fig. 2 topology;
		// inter-ring traffic is left to the host/IB fallback.
		return
	}
	if sc.cutDone[cut] {
		return
	}
	sc.cutDone[cut] = true
	if sc.RerouteAvoidingCut(cut) == nil {
		sc.inj.NoteFailover()
	}
}
