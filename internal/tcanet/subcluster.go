package tcanet

import (
	"fmt"

	"tca/internal/fault"
	"tca/internal/host"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/units"
)

// Params configures sub-cluster construction.
type Params struct {
	// Host configures each node.
	Host host.Params
	// Chip configures each PEACH2.
	Chip peach2.Params
	// CableProp is the external PCIe cable's one-way latency ("the
	// length of the PCIe external cable is limited to several meters",
	// §II-B).
	CableProp units.Duration
	// HostLinkProp is the edge-connector link latency of Port N.
	HostLinkProp units.Duration
	// RingCredits sets the E/W/S link ingress depth in TLPs (0 =
	// pcie.DefaultCreditTLPs).
	RingCredits int
	// MaxPayload is the negotiated payload bound on every link (0 =
	// pcie.DefaultMaxPayload, the paper's 256 bytes).
	MaxPayload units.ByteSize
}

// DefaultParams builds HA-PACS/TCA-like sub-clusters.
var DefaultParams = Params{
	Host: host.DefaultParams,
	Chip: peach2.DefaultParams,
	// 90 ns covers the SerDes pair plus a ~3 m external cable; with the
	// router pipeline and host-side costs the loopback PIO latency lands
	// on the paper's 782 ns (§IV-B1).
	CableProp:    90 * units.Nanosecond,
	HostLinkProp: 5 * units.Nanosecond,
}

// SubCluster is a set of nodes whose PEACH2 chips share one global address
// space.
type SubCluster struct {
	eng   *sim.Engine
	plan  Plan
	prm   Params
	nodes []*host.Node
	chips []*peach2.Chip
	obs   *obsv.Set

	// ringSize is the number of chips per E/W ring (n for BuildRing, k for
	// BuildDualRing); dualRing marks the Port-S-coupled topology. Both
	// drive failover's ring-scoped rerouting.
	ringSize int
	dualRing bool

	// Fault plumbing (nil/empty on a perfect fabric): the injector wired by
	// InjectFaults and the set of ring links already failed over.
	inj     *fault.Injector
	cutDone map[int]bool
}

// Instrument attaches the whole sub-cluster to an observability set: every
// node, every chip (and DMAC), the Port-N host links, and the E/W/S ring
// links. Safe to call once after construction; the set is retained for
// Observability().
func (sc *SubCluster) Instrument(set *obsv.Set) {
	sc.obs = set
	for _, n := range sc.nodes {
		n.Instrument(set)
	}
	instrumentChips(set, sc.chips...)
}

// Observability returns the attached set, or nil when uninstrumented.
func (sc *SubCluster) Observability() *obsv.Set { return sc.obs }

// Profile registers every component of the sub-cluster — nodes (and their
// switches), chips (and their DMACs), and links — with an engine profiler,
// so host wall-clock attributes to the component whose handler consumed it.
// Safe with a nil profiler; component naming mirrors Instrument.
func (sc *SubCluster) Profile(p *prof.Profiler) {
	for _, n := range sc.nodes {
		n.Profile(p)
	}
	profileChips(p, sc.chips...)
}

// StartTelemetry begins periodic sampling of every probe the instrumented
// components registered (link utilization, DMAC busy fraction, port byte
// rates, outstanding reads, queue depths) at the given sim-time interval.
// The sampler stops itself when the event queue drains; call again to
// sample a later phase. Panics if the sub-cluster was never instrumented.
func (sc *SubCluster) StartTelemetry(interval units.Duration) {
	if sc.obs == nil {
		panic("tcanet: StartTelemetry on an uninstrumented sub-cluster (call Instrument first)")
	}
	sc.obs.Sampler().Start(sc.eng, interval)
}

// instrumentChips wires chips and their connected links into a set, naming
// each link after the first chip-side port that reaches it
// ("link:peach2-0.E").
func instrumentChips(set *obsv.Set, chips ...*peach2.Chip) {
	seen := make(map[*pcie.Link]bool)
	for _, c := range chips {
		c.Instrument(set)
		for _, id := range []peach2.PortID{peach2.PortN, peach2.PortE, peach2.PortW, peach2.PortS} {
			p := c.Port(id)
			if !p.Connected() || seen[p.Link()] {
				continue
			}
			seen[p.Link()] = true
			p.Link().Instrument(set, fmt.Sprintf("link:%s.%s", c.DevName(), p.Label))
		}
	}
}

// profileChips registers chips and their connected links with a profiler,
// using the same link-naming rule as instrumentChips so profiler rows line
// up with metric labels ("link:peach2-0.E").
func profileChips(p *prof.Profiler, chips ...*peach2.Chip) {
	seen := make(map[*pcie.Link]bool)
	for _, c := range chips {
		c.Profile(p)
		for _, id := range []peach2.PortID{peach2.PortN, peach2.PortE, peach2.PortW, peach2.PortS} {
			pt := c.Port(id)
			if !pt.Connected() || seen[pt.Link()] {
				continue
			}
			seen[pt.Link()] = true
			pt.Link().Profile(p, fmt.Sprintf("link:%s.%s", c.DevName(), pt.Label))
		}
	}
}

// BuildRing constructs an n-node sub-cluster with Ports E and W forming a
// ring (§III-D) and shortest-arc routing programmed into every chip.
func BuildRing(eng *sim.Engine, n int, prm Params) (*SubCluster, error) {
	sc, err := buildNodes(eng, n, prm)
	if err != nil {
		return nil, err
	}
	// "Ports E and W are expected to form the ring topology by
	// connecting to each other": node i's E (fixed EP) cables to node
	// i+1's W (fixed RC).
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		pcie.MustConnect(eng, sc.chips[i].Port(peach2.PortE), sc.chips[next].Port(peach2.PortW),
			sc.ringLinkParams())
	}
	for i := 0; i < n; i++ {
		sc.chips[i].SetRoutes(sc.plan.RingRoutes(i))
	}
	sc.ringSize = n
	return sc, nil
}

// BuildDualRing constructs a 2k-node sub-cluster as two k-node rings whose
// matching nodes are coupled by Port S ("Port S ... is used to combine two
// rings by connecting to Port S on the peer node", §III-D). Nodes 0..k-1
// form ring A with S as RC; nodes k..2k-1 form ring B with S as EP.
func BuildDualRing(eng *sim.Engine, k int, prm Params) (*SubCluster, error) {
	if k < 2 {
		return nil, fmt.Errorf("tcanet: dual ring needs k >= 2 per ring, got %d", k)
	}
	n := 2 * k
	sc, err := buildNodes(eng, n, prm)
	if err != nil {
		return nil, err
	}
	for r := 0; r < 2; r++ {
		base := r * k
		for i := 0; i < k; i++ {
			next := base + (i+1)%k
			pcie.MustConnect(eng, sc.chips[base+i].Port(peach2.PortE), sc.chips[next].Port(peach2.PortW),
				sc.ringLinkParams())
		}
	}
	// Couple peers i <-> i+k through S. The port's role is
	// reconfigurable before link-up ("different configuration images for
	// the FPGA are prepared for switching the role of Port S").
	for i := 0; i < k; i++ {
		a := sc.chips[i].Port(peach2.PortS)
		b := sc.chips[i+k].Port(peach2.PortS)
		a.SetRole(pcie.RoleRC)
		pcie.MustConnect(eng, a, b, sc.ringLinkParams())
	}
	// Routing: own-ring destinations take the shorter E/W arc; the other
	// ring is one masked-range rule out of S.
	for i := 0; i < n; i++ {
		ring := i / k
		var rules []peach2.RouteRule
		mask := ^pcie.Addr(sc.plan.windowSize - 1)
		otherBase := (1 - ring) * k
		rules = append(rules, peach2.RouteRule{
			Mask:  mask,
			Lower: sc.plan.NodeWindow(otherBase).Base,
			Upper: sc.plan.NodeWindow(otherBase + k - 1).Base,
			Out:   peach2.PortS,
		})
		rules = append(rules, sc.ringArcRoutes(i, ring*k, k)...)
		sc.chips[i].SetRoutes(rules)
	}
	sc.ringSize = k
	sc.dualRing = true
	return sc, nil
}

// ringArcRoutes computes shortest-arc E/W rules for node i within the ring
// covering nodes [base, base+k).
func (sc *SubCluster) ringArcRoutes(i, base, k int) []peach2.RouteRule {
	local := i - base
	var east, west []int
	for d := 0; d < k; d++ {
		if d == local {
			continue
		}
		de := (d - local + k) % k
		dw := (local - d + k) % k
		if de <= dw {
			east = append(east, base+d)
		} else {
			west = append(west, base+d)
		}
	}
	mask := ^pcie.Addr(sc.plan.windowSize - 1)
	var rules []peach2.RouteRule
	for _, r := range idRanges(east) {
		rules = append(rules, peach2.RouteRule{Mask: mask, Lower: sc.plan.NodeWindow(r[0]).Base, Upper: sc.plan.NodeWindow(r[1]).Base, Out: peach2.PortE})
	}
	for _, r := range idRanges(west) {
		rules = append(rules, peach2.RouteRule{Mask: mask, Lower: sc.plan.NodeWindow(r[0]).Base, Upper: sc.plan.NodeWindow(r[1]).Base, Out: peach2.PortW})
	}
	return rules
}

func (sc *SubCluster) ringLinkParams() pcie.LinkParams {
	return pcie.LinkParams{
		Config:      sc.prm.Chip.LinkConfig,
		Propagation: sc.prm.CableProp,
		CreditTLPs:  sc.prm.RingCredits,
		MaxPayload:  sc.prm.MaxPayload,
	}
}

// buildNodes creates the nodes and chips and attaches each chip to its
// host, without ring cabling.
func buildNodes(eng *sim.Engine, n int, prm Params) (*SubCluster, error) {
	plan, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	sc := &SubCluster{eng: eng, plan: plan, prm: prm}
	hostPrm := prm.Host
	if prm.MaxPayload != 0 {
		hostPrm.MaxPayload = prm.MaxPayload
	}
	idToNode := make(map[pcie.DeviceID]int, n)
	for i := 0; i < n; i++ {
		node := host.NewNode(eng, i, hostPrm)
		chip := peach2.New(eng, fmt.Sprintf("peach2-%d", i), node.AllocDeviceID(),
			prm.Chip, sc.nodePlan(plan, i, node, idToNode))
		idToNode[chip.ID()] = i
		// The PEACH2 board sits in a socket-0 slot; its BAR is the
		// whole TCA region, so every store into the global space
		// routes to the chip (§III-E and footnote 2).
		if err := node.AttachDevice(0, "peach2", plan.Region(), chip.Port(peach2.PortN),
			pcie.LinkParams{Config: prm.Chip.LinkConfig, Propagation: prm.HostLinkProp, MaxPayload: prm.MaxPayload}); err != nil {
			return nil, err
		}
		sc.nodes = append(sc.nodes, node)
		sc.chips = append(sc.chips, chip)
	}
	return sc, nil
}

// nodePlan builds chip i's slice of the plan, including the Port-N
// conversion table: GPU blocks map onto the two same-socket GPUs' BAR1
// windows, the host block maps onto DRAM from bus address 0.
func (sc *SubCluster) nodePlan(plan Plan, i int, node *host.Node, idToNode map[pcie.DeviceID]int) peach2.NodePlan {
	conv := []peach2.ConvEntry{
		{Global: plan.GPUBlock(i, 0), Local: node.GPU(0).BAR1Window().Base, Class: peach2.ClassGPU},
		{Global: plan.GPUBlock(i, 1), Local: node.GPU(1).BAR1Window().Base, Class: peach2.ClassGPU},
		{Global: plan.HostBlock(i), Local: 0, Class: peach2.ClassHost},
	}
	return peach2.NodePlan{
		NodeID:       i,
		GlobalWindow: plan.NodeWindow(i),
		TCARegion:    plan.Region(),
		Internal:     plan.InternalBlock(i),
		Conv:         conv,
		AckAddrOf:    plan.AckAddr,
		NodeOfRequester: func(id pcie.DeviceID) (int, bool) {
			n, ok := idToNode[id]
			return n, ok
		},
		ClassOf: plan.ClassOf,
	}
}

// Engine returns the simulation engine.
func (sc *SubCluster) Engine() *sim.Engine { return sc.eng }

// Plan returns the address plan.
func (sc *SubCluster) Plan() Plan { return sc.plan }

// Nodes reports the sub-cluster size.
func (sc *SubCluster) Nodes() int { return len(sc.nodes) }

// Node returns node i.
func (sc *SubCluster) Node(i int) *host.Node { return sc.nodes[i] }

// Chip returns node i's PEACH2.
func (sc *SubCluster) Chip(i int) *peach2.Chip { return sc.chips[i] }

// GlobalHostAddr translates node i's local host bus address into the
// global space (valid for addresses inside the host block's reach).
func (sc *SubCluster) GlobalHostAddr(i int, bus pcie.Addr) (pcie.Addr, error) {
	if uint64(bus) >= sc.plan.blockSize {
		return 0, fmt.Errorf("tcanet: host bus address %v beyond the %v host block", bus, sc.plan.BlockSize())
	}
	return sc.plan.HostBlock(i).Base + bus, nil
}

// GlobalGPUAddr translates a pinned local BAR1 address on node i's GPU g
// into the global space.
func (sc *SubCluster) GlobalGPUAddr(i, g int, bus pcie.Addr) (pcie.Addr, error) {
	if g < 0 || g > 1 {
		return 0, fmt.Errorf("tcanet: GPU %d not in the TCA map (PEACH2 reaches GPU0/GPU1 only, §III-C)", g)
	}
	w := sc.nodes[i].GPU(g).BAR1Window()
	if !w.Contains(bus) {
		return 0, fmt.Errorf("tcanet: %v outside %s BAR1 %v", bus, sc.nodes[i].GPU(g).DevName(), w)
	}
	return sc.plan.GPUBlock(i, g).Base + (bus - w.Base), nil
}

// Loopback is the Fig. 10 measurement rig: two PEACH2 boards in one node,
// cabled E(A)→W(B), with a 2-node plan whose both windows resolve to the
// single host. The §IV-B1 latency experiment stores through chip A and
// polls host memory for chip B's write.
type Loopback struct {
	Node  *host.Node
	ChipA *peach2.Chip
	ChipB *peach2.Chip
	Plan  Plan
}

// BuildLoopback assembles the rig.
func BuildLoopback(eng *sim.Engine, prm Params) (*Loopback, error) {
	plan, err := NewPlan(2)
	if err != nil {
		return nil, err
	}
	hostPrm := prm.Host
	if prm.MaxPayload != 0 {
		hostPrm.MaxPayload = prm.MaxPayload
	}
	node := host.NewNode(eng, 0, hostPrm)
	idToNode := make(map[pcie.DeviceID]int, 2)
	mk := func(i int, gw pcie.Range) *peach2.Chip {
		conv := []peach2.ConvEntry{
			{Global: plan.GPUBlock(i, 0), Local: node.GPU(0).BAR1Window().Base, Class: peach2.ClassGPU},
			{Global: plan.GPUBlock(i, 1), Local: node.GPU(1).BAR1Window().Base, Class: peach2.ClassGPU},
			{Global: plan.HostBlock(i), Local: 0, Class: peach2.ClassHost},
		}
		chip := peach2.New(eng, fmt.Sprintf("peach2-%c", 'A'+i), node.AllocDeviceID(), prm.Chip, peach2.NodePlan{
			NodeID:       i,
			GlobalWindow: gw,
			TCARegion:    plan.Region(),
			Internal:     plan.InternalBlock(i),
			Conv:         conv,
			AckAddrOf:    plan.AckAddr,
			NodeOfRequester: func(id pcie.DeviceID) (int, bool) {
				n, ok := idToNode[id]
				return n, ok
			},
			ClassOf: plan.ClassOf,
		})
		idToNode[chip.ID()] = i
		return chip
	}
	chipA := mk(0, plan.NodeWindow(0))
	chipB := mk(1, plan.NodeWindow(1))
	// The host reaches "node 1" addresses through chip A's slot and
	// "node 0" addresses through chip B's — each board's switch window
	// is the other's node window, so a store into the peer window
	// enters the fabric and comes back through the cable (Fig. 10).
	if err := node.AttachDevice(0, "peach2-A", plan.NodeWindow(1), chipA.Port(peach2.PortN),
		pcie.LinkParams{Config: prm.Chip.LinkConfig, Propagation: prm.HostLinkProp, MaxPayload: prm.MaxPayload}); err != nil {
		return nil, err
	}
	if err := node.AttachDevice(0, "peach2-B", plan.NodeWindow(0), chipB.Port(peach2.PortN),
		pcie.LinkParams{Config: prm.Chip.LinkConfig, Propagation: prm.HostLinkProp, MaxPayload: prm.MaxPayload}); err != nil {
		return nil, err
	}
	pcie.MustConnect(eng, chipA.Port(peach2.PortE), chipB.Port(peach2.PortW), pcie.LinkParams{
		Config:      prm.Chip.LinkConfig,
		Propagation: prm.CableProp,
		CreditTLPs:  prm.RingCredits,
		MaxPayload:  prm.MaxPayload,
	})
	// Step 1 of the §IV-B1 procedure: "routing information is
	// appropriately set to the control register in PEACH2".
	mask := ^pcie.Addr(plan.windowSize - 1)
	chipA.SetRoutes([]peach2.RouteRule{{Mask: mask, Lower: plan.NodeWindow(1).Base, Upper: plan.NodeWindow(1).Base, Out: peach2.PortE}})
	chipB.SetRoutes([]peach2.RouteRule{{Mask: mask, Lower: plan.NodeWindow(0).Base, Upper: plan.NodeWindow(0).Base, Out: peach2.PortW}})
	return &Loopback{Node: node, ChipA: chipA, ChipB: chipB, Plan: plan}, nil
}
