package peach2

import (
	"encoding/binary"
	"fmt"

	"tca/internal/fault"
	"tca/internal/freelist"
	"tca/internal/memory"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/units"
)

// Chip is one PEACH2 chip. It implements pcie.Device for all four of its
// ports; the port a packet arrived on distinguishes host traffic (N) from
// ring traffic (E/W/S).
type Chip struct {
	eng    *sim.Engine
	name   string
	id     pcie.DeviceID
	params Params
	plan   NodePlan

	ports  [4]*pcie.Port
	rules  []RouteRule
	intMem *memory.RAM
	dmac   *DMAC
	nios   *NIOS

	// Raw register values, addressable through the internal block.
	regTable uint64
	regCount uint64
	regRoute [MaxRouteRules]RouteRule

	onIRQ func(now sim.Time)

	// Fault machinery (faults nil on a perfect fabric — every consult is
	// then a nil-receiver no-op and no recovery timer is ever scheduled).
	faults   *fault.Injector
	portDead [4]bool
	// parked holds TLPs stranded by a dead egress link, in arrival order,
	// until a route reprogram re-injects them (flushParked).
	parked []*pcie.TLP

	// pool recycles the TLPs the chip originates (flush acks, converted
	// Port-N copies of foreign packets, DMA read requests, internal-read
	// completions); ringFree and nFree recycle the router's forward
	// actions, readFree the internal-read replies. All single-threaded,
	// owned by the engine's event loop.
	pool     pcie.TLPPool
	ringFree freelist.List[ringFwdAction]
	nFree    freelist.List[nFwdAction]
	readFree freelist.List[internalReadAction]

	// Observability (all handles nil when uninstrumented — every update
	// below is then a single-branch no-op).
	rec *obsv.Recorder
	led obsv.Ledger
	cm  chipMetrics

	// comp is the chip's host-time attribution tag (0 when unprofiled).
	comp sim.CompID
}

// chipMetrics are the chip's registered metric handles.
type chipMetrics struct {
	tlpsIn    [4]*obsv.Counter
	bytesIn   [4]*obsv.Counter
	tlpsOut   [numPorts]*obsv.Counter
	bytesOut  [numPorts]*obsv.Counter
	converted *obsv.Counter
	acksSent  *obsv.Counter
	acksRecv  *obsv.Counter
	intWrites *obsv.Counter
	irqs      *obsv.Counter
	routeMiss *obsv.Counter
}

// portLabels are the label sets of the per-port counters, built once and
// shared by every chip, so registering them allocates no label slices.
var portLabels = func() (ls [numPorts][]obsv.Label) {
	for p := range ls {
		ls[p] = []obsv.Label{{Key: "port", Value: PortID(p).String()}}
	}
	return ls
}()

// Instrument attaches the chip (and its DMAC) to an observability set:
// per-port TLP counters, conversion/ack/IRQ counters, DMAC queue and busy
// metrics, and typed span events for traced transactions.
func (c *Chip) Instrument(set *obsv.Set) {
	reg := set.Registry()
	c.rec = set.Recorder()
	c.led = set.Ledger()
	for p := PortN; p <= PortS; p++ {
		c.cm.tlpsIn[p] = reg.Counter("port_tlps_in", c.name, portLabels[p]...)
		c.cm.bytesIn[p] = reg.Counter("port_bytes_in", c.name, portLabels[p]...)
	}
	for p := PortN; p < numPorts; p++ {
		c.cm.tlpsOut[p] = reg.Counter("port_tlps_out", c.name, portLabels[p]...)
		c.cm.bytesOut[p] = reg.Counter("port_bytes_out", c.name, portLabels[p]...)
	}
	c.registerProbes(set.Sampler())
	c.cm.converted = reg.Counter("addr_conversions", c.name)
	c.cm.acksSent = reg.Counter("flush_acks_sent", c.name)
	c.cm.acksRecv = reg.Counter("flush_acks_recv", c.name)
	c.cm.intWrites = reg.Counter("internal_writes", c.name)
	c.cm.irqs = reg.Counter("irqs", c.name)
	c.cm.routeMiss = reg.Counter("route_misses", c.name)
	c.dmac.instrument(set)
}

// Profile registers the chip and its DMAC with an engine profiler so router
// and DMA events charge host time to them. Safe with a nil profiler.
func (c *Chip) Profile(p *prof.Profiler) {
	c.comp = p.Component(c.name)
	c.dmac.profile(p)
}

// registerProbes wires the chip's telemetry: per-port ingress and egress
// bytes per sampling interval, computed as deltas of the cumulative byte
// counters.
func (c *Chip) registerProbes(sam *obsv.Sampler) {
	if sam == nil {
		return
	}
	for p := PortN; p <= PortS; p++ {
		inC, outC := c.cm.bytesIn[p], c.cm.bytesOut[p]
		var lastIn, lastOut uint64
		sam.Register("port_in_bytes", c.name, p.String(), "B", func(sim.Time, units.Duration) float64 {
			cur := inC.Value()
			delta := cur - lastIn
			lastIn = cur
			return float64(delta)
		})
		sam.Register("port_out_bytes", c.name, p.String(), "B", func(sim.Time, units.Duration) float64 {
			cur := outC.Value()
			delta := cur - lastOut
			lastOut = cur
			return float64(delta)
		})
	}
}

// portIndex maps a physical port back to its ID (for ingress accounting).
func (c *Chip) portIndex(p *pcie.Port) PortID {
	for i := PortN; i <= PortS; i++ {
		if c.ports[i] == p {
			return i
		}
	}
	panic(fmt.Sprintf("peach2 %s: foreign port %v", c.name, p))
}

// New creates a chip. The plan is the chip's slice of the sub-cluster
// address map; id is its PCIe requester identity.
func New(eng *sim.Engine, name string, id pcie.DeviceID, params Params, plan NodePlan) *Chip {
	if plan.GlobalWindow.Size == 0 || plan.TCARegion.Size == 0 || plan.Internal.Size == 0 {
		panic(fmt.Sprintf("peach2 %s: incomplete plan %+v", name, plan))
	}
	if !plan.TCARegion.ContainsRange(plan.GlobalWindow) || !plan.GlobalWindow.ContainsRange(plan.Internal) {
		panic(fmt.Sprintf("peach2 %s: plan windows not nested", name))
	}
	c := &Chip{
		eng:    eng,
		name:   name,
		id:     id,
		params: params,
		plan:   plan,
		intMem: memory.NewRAM(params.InternalMemSize),
	}
	// Port roles per §III-D: N is an ordinary endpoint toward the host;
	// E is fixed EP and W fixed RC so that any E—W cable pairs one RC
	// with one EP; S is selectable (default EP, flipped with SetRole
	// before link-up).
	c.ports[PortN] = pcie.NewPort(c, "N", pcie.RoleEP)
	c.ports[PortE] = pcie.NewPort(c, "E", pcie.RoleEP)
	c.ports[PortW] = pcie.NewPort(c, "W", pcie.RoleRC)
	c.ports[PortS] = pcie.NewPort(c, "S", pcie.RoleEP)
	c.dmac = newDMAC(c)
	c.nios = newNIOS(c)
	return c
}

// DevName implements pcie.Device.
func (c *Chip) DevName() string { return c.name }

// ID reports the chip's requester ID.
func (c *Chip) ID() pcie.DeviceID { return c.id }

// Plan returns the chip's address plan.
func (c *Chip) Plan() NodePlan { return c.plan }

// Port returns one of the four physical ports.
func (c *Chip) Port(id PortID) *pcie.Port {
	if id < PortN || id > PortS {
		panic(fmt.Sprintf("peach2 %s: no physical port %v", c.name, id))
	}
	return c.ports[id]
}

// DMAC returns the chaining DMA controller.
func (c *Chip) DMAC() *DMAC { return c.dmac }

// NIOS returns the management controller.
func (c *Chip) NIOS() *NIOS { return c.nios }

// InternalMemory exposes the packet-buffer RAM (offsets are relative to the
// buffer start, i.e. internal-block offset IntMemOffset).
func (c *Chip) InternalMemory() *memory.RAM { return c.intMem }

// SetIRQHandler registers the driver's completion interrupt handler.
func (c *Chip) SetIRQHandler(fn func(now sim.Time)) { c.onIRQ = fn }

// AttachFaults connects the chip to a fault injector, arming the DMAC's
// recovery timers (completion timeout, chain watchdog). A nil injector —
// the default — leaves the chip on the exact pre-fault event schedule.
func (c *Chip) AttachFaults(inj *fault.Injector) { c.faults = inj }

// PortUp reports whether a physical port is connected and its link alive —
// what the status register reports.
func (c *Chip) PortUp(id PortID) bool {
	return c.Port(id).Connected() && !c.portDead[id]
}

// LinkDead is the dead-link notification from a port's data-link layer:
// the cable out of port id exhausted its replay budget. The chip marks the
// egress dead, parks the salvaged in-flight TLPs for rerouting, and tells
// the management controller, which may reprogram routes (failover).
func (c *Chip) LinkDead(now sim.Time, id PortID, salvaged []*pcie.TLP) {
	first := !c.portDead[id]
	c.portDead[id] = true
	for _, t := range salvaged {
		c.parkTLP(now, t)
	}
	if first {
		c.nios.linkDead(now, id)
	}
}

// parkTLP strands one TLP on the chip until a route reprogram re-injects
// it.
func (c *Chip) parkTLP(now sim.Time, t *pcie.TLP) {
	// Parked packets outlive every normal delivery lifetime (they wait for
	// a NIOS route reprogram), so they must never return to a pool while
	// the parked list still aliases them.
	t.Pin()
	c.parked = append(c.parked, t)
	if c.led != nil {
		if t.LID == 0 {
			// A DMAC write routed at an already-dead port parks before any
			// link has born it; it enters the ledger here.
			t.LID = c.led.Born(now, t.Kind.String(), uint64(t.Addr), t.Data, c.name)
		}
		c.led.Parked(now, t.LID, c.name)
	}
	if c.rec != nil && t.Txn != 0 {
		c.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageLinkDown,
			Where: c.name, Addr: uint64(t.Addr)})
	}
}

// Parked reports how many TLPs wait for a reroute.
func (c *Chip) Parked() int { return len(c.parked) }

// flushParked re-injects every parked TLP through the (just reprogrammed)
// routing unit. Packets whose new route is still dead re-park; packets
// with no route are dropped — the fabric equivalent of an unreachable
// destination after degradation.
func (c *Chip) flushParked() {
	if len(c.parked) == 0 {
		return
	}
	batch := c.parked
	c.parked = nil
	c.eng.AfterComp(c.comp, 0, func() {
		now := c.eng.Now()
		for _, t := range batch {
			if c.rec != nil && t.Txn != 0 {
				c.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageFailover,
					Where: c.name, Addr: uint64(t.Addr)})
			}
			dst, err := c.route(t.Addr)
			if err != nil {
				if c.led != nil && t.LID != 0 {
					c.led.Dropped(now, t.LID, c.name, "no route after failover")
				}
				continue
			}
			if c.led != nil && t.LID != 0 {
				c.led.Unparked(now, t.LID, c.name)
			}
			switch dst {
			case PortInternal:
				c.acceptInternalWrite(now, t)
			case PortN:
				c.forwardN(now, t)
			default:
				c.forwardRing(now, t, dst)
			}
		}
	})
}

// SetRoutes programs the routing rules directly (the driver equivalent of
// writing the RegRouteBase registers; both paths share the same storage).
func (c *Chip) SetRoutes(rules []RouteRule) {
	if len(rules) > MaxRouteRules {
		panic(fmt.Sprintf("peach2 %s: %d rules exceed the %d register sets", c.name, len(rules), MaxRouteRules))
	}
	for i := range c.regRoute {
		c.regRoute[i] = RouteRule{}
	}
	copy(c.regRoute[:], rules)
	c.rules = append(c.rules[:0], rules...)
	c.flushParked()
}

// Routes returns the active rules.
func (c *Chip) Routes() []RouteRule { return append([]RouteRule(nil), c.rules...) }

// route decides where a packet addressed to a terminates or exits.
// Own-node addresses go to Port N (after conversion) or terminate
// internally; non-TCA addresses are local bus addresses and also exit N;
// everything else consults the rule registers (Fig. 5).
func (c *Chip) route(a pcie.Addr) (PortID, error) {
	switch {
	case c.plan.Internal.Contains(a):
		return PortInternal, nil
	case c.plan.GlobalWindow.Contains(a):
		return PortN, nil
	case !c.plan.TCARegion.Contains(a):
		return PortN, nil
	}
	for _, r := range c.rules {
		if r.Out != PortInternal && r.Matches(a) {
			return r.Out, nil
		}
	}
	c.cm.routeMiss.Inc()
	return 0, fmt.Errorf("no route for %v", a)
}

// convertN translates a global own-window address to the local bus address
// Port N emits (§III-E). Local bus addresses pass through unchanged.
func (c *Chip) convertN(a pcie.Addr) (pcie.Addr, BlockClass, bool) {
	if !c.plan.GlobalWindow.Contains(a) {
		return a, ClassHost, false
	}
	for _, e := range c.plan.Conv {
		if e.Global.Contains(a) {
			return e.Local + (a - e.Global.Base), e.Class, true
		}
	}
	panic(fmt.Sprintf("peach2 %s: own-window address %v has no conversion entry", c.name, a))
}

// Accept implements pcie.Device.
func (c *Chip) Accept(now sim.Time, t *pcie.TLP, in *pcie.Port) units.Duration {
	if c.cm.tlpsIn[PortN] != nil {
		pi := c.portIndex(in)
		c.cm.tlpsIn[pi].Inc()
		c.cm.bytesIn[pi].Add(uint64(t.WireBytes()))
	}
	if c.rec != nil && t.Txn != 0 {
		c.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StagePortIn,
			Where: c.name, Port: in.Label, Addr: uint64(t.Addr)})
	}
	switch t.Kind {
	case pcie.CplD, pcie.Cpl:
		// Only the DMAC issues non-posted requests, always through N.
		if in != c.ports[PortN] {
			panic(fmt.Sprintf("peach2 %s: completion arrived on %s", c.name, in.Label))
		}
		c.dmac.handleCompletion(t)
		return 0
	case pcie.MRd:
		dst, err := c.route(t.Addr)
		if err != nil {
			panic(fmt.Sprintf("peach2 %s: MRd: %v", c.name, err))
		}
		if dst != PortN && dst != PortInternal {
			// §III-F: "memory access to a remote node is restricted
			// to Memory Write Request only ... PEACH2 supports only
			// RDMA put protocol".
			panic(fmt.Sprintf("peach2 %s: MRd to %v would cross the ring — RDMA put only", c.name, t.Addr))
		}
		if dst == PortInternal {
			c.serveInternalRead(now, t, in)
			return 0
		}
		// A read for the local host/GPU relayed from the host itself
		// makes no sense; reads never transit.
		panic(fmt.Sprintf("peach2 %s: unexpected MRd for local bus address %v on %s", c.name, t.Addr, in.Label))
	case pcie.MWr:
		dst, err := c.route(t.Addr)
		if err != nil {
			panic(fmt.Sprintf("peach2 %s: MWr: %v", c.name, err))
		}
		switch dst {
		case PortInternal:
			c.acceptInternalWrite(now, t)
			return 0
		case PortN:
			c.forwardN(now, t)
		default:
			c.forwardRing(now, t, dst)
		}
		// Store-and-forward ingress buffer: the slot frees once the
		// packet enters the router pipeline.
		return 8 * units.Nanosecond
	default:
		panic(fmt.Sprintf("peach2 %s: unhandled TLP kind %v", c.name, t.Kind))
	}
}

// forwardRing relays a packet toward another node. A packet routed at a
// dead egress parks for the failover reroute instead.
func (c *Chip) forwardRing(now sim.Time, t *pcie.TLP, out PortID) {
	if c.portDead[out] {
		c.parkTLP(now, t)
		return
	}
	if !c.ports[out].Connected() {
		panic(fmt.Sprintf("peach2 %s: route to unconnected port %v for %v", c.name, out, t.Addr))
	}
	c.cm.tlpsOut[out].Inc()
	c.cm.bytesOut[out].Add(uint64(t.WireBytes()))
	if c.rec != nil && t.Txn != 0 {
		c.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageRoute,
			Where: c.name, Port: out.String(), Addr: uint64(t.Addr)})
	}
	a := c.ringFree.Get()
	a.c, a.t, a.out = c, t, out
	c.eng.AfterAction(c.comp, c.params.RouterLatency, a)
}

// ringFwdAction is the pooled router-pipeline event of a ring forward:
// after the router latency it emits the packet out of the chosen ring port
// and returns itself to the chip's free list.
type ringFwdAction struct {
	c   *Chip
	t   *pcie.TLP
	out PortID
}

// RunAction implements sim.Action.
func (a *ringFwdAction) RunAction(now sim.Time) {
	c, t, out := a.c, a.t, a.out
	c.ringFree.Put(a)
	if c.rec != nil && t.Txn != 0 {
		c.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StagePortOut,
			Where: c.name, Port: out.String(), Addr: uint64(t.Addr)})
	}
	c.ports[out].Send(now, t)
}

// forwardN converts (if needed) and emits a packet toward the local host
// fabric, honouring flush semantics: a flushed packet aimed at strictly-
// ordered host memory is acknowledged back to its source chip after the
// drain delay; deep-queue GPU sinks need no acknowledgement.
func (c *Chip) forwardN(now sim.Time, t *pcie.TLP) {
	local, class, conv := c.convertN(t.Addr)
	lat := c.params.RouterLatency
	if conv {
		lat += c.params.NConvLatency
		c.cm.converted.Inc()
	}
	c.cm.tlpsOut[PortN].Inc()
	c.cm.bytesOut[PortN].Add(uint64(t.WireBytes()))
	if c.rec != nil && t.Txn != 0 {
		if conv {
			c.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageConvert,
				Where: c.name, Port: "N", Addr: uint64(local), Note: class.String()})
		} else {
			c.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageRoute,
				Where: c.name, Port: "N", Addr: uint64(t.Addr)})
		}
	}
	// Everything the ack path needs is read before ownership of t changes
	// hands below: the pooled packet may be recycled (and its fields
	// rewritten) as soon as it reaches the host sink.
	flush, req, txn := t.Flush, t.Requester, t.Txn
	out := t
	if !t.Pooled() {
		// The creator may retain the packet (an upstream DLL replay buffer,
		// a test fixture), so the converted address must live in a copy —
		// drawn from the chip's pool so the per-forward allocation the old
		// `out := *t` paid disappears on the lossless path.
		out = c.pool.Get()
		out.Kind = t.Kind
		out.ReadLen = t.ReadLen
		out.Requester = t.Requester
		out.Tag = t.Tag
		out.Relaxed = t.Relaxed
		out.Last = t.Last
		out.Flush = t.Flush
		out.Txn = t.Txn
		out.LID = t.LID
		out.SetPayload(t.Data)
	}
	out.Addr = local
	c.eng.AfterAction(c.comp, lat, c.newNFwd(out, local, flush, class, req, txn))
}

// nFwdAction is the pooled router-pipeline event of a Port-N forward: after
// the router (plus conversion) latency it emits the converted packet toward
// the host fabric and, for flushed packets, schedules the delivery
// acknowledgement back to the source chip.
type nFwdAction struct {
	c     *Chip
	t     *pcie.TLP
	local pcie.Addr
	flush bool
	class BlockClass
	req   pcie.DeviceID
	txn   uint64
}

func (c *Chip) newNFwd(t *pcie.TLP, local pcie.Addr, flush bool, class BlockClass, req pcie.DeviceID, txn uint64) *nFwdAction {
	a := c.nFree.Get()
	a.c, a.t, a.local, a.flush, a.class, a.req, a.txn = c, t, local, flush, class, req, txn
	return a
}

// RunAction implements sim.Action.
func (a *nFwdAction) RunAction(now sim.Time) {
	c, t, local := a.c, a.t, a.local
	flush, class, req, txn := a.flush, a.class, a.req, a.txn
	c.nFree.Put(a)
	if c.rec != nil && txn != 0 {
		c.rec.Record(obsv.Event{At: now, Txn: txn, Stage: obsv.StagePortOut,
			Where: c.name, Port: "N", Addr: uint64(local)})
	}
	c.ports[PortN].Send(now, t)
	if flush {
		delay := units.Duration(0)
		if class == ClassHost {
			delay = c.params.DMA.HostFlushDelay
		}
		c.eng.AfterComp(c.comp, delay, func() { c.sendFlushAck(req, txn) })
	}
}

// ackWord is the 8-byte flush-acknowledgement payload; read-only after
// package init (SetPayload copies it into the ack packet's own buffer).
var ackWord = [8]byte{1}

// sendFlushAck writes the source chip's ack word through the ring. The ack
// inherits the flushed packet's transaction ID so a traced chain sees its
// acknowledgement hop.
func (c *Chip) sendFlushAck(req pcie.DeviceID, txn uint64) {
	if c.plan.NodeOfRequester == nil || c.plan.AckAddrOf == nil {
		panic(fmt.Sprintf("peach2 %s: flush ack requested but plan has no requester map", c.name))
	}
	node, ok := c.plan.NodeOfRequester(req)
	if !ok {
		panic(fmt.Sprintf("peach2 %s: flush ack for unknown requester %d", c.name, req))
	}
	ack := c.pool.Get()
	ack.Kind = pcie.MWr
	ack.Addr = c.plan.AckAddrOf(node)
	ack.SetPayload(ackWord[:])
	ack.Requester = c.id
	ack.Last = true
	ack.Txn = txn
	c.cm.acksSent.Inc()
	dst, err := c.route(ack.Addr)
	if err != nil {
		panic(fmt.Sprintf("peach2 %s: flush ack: %v", c.name, err))
	}
	if dst == PortInternal {
		// Only possible if a chip acks itself — a plan bug.
		panic(fmt.Sprintf("peach2 %s: flush ack routed to self", c.name))
	}
	c.forwardRing(c.eng.Now(), ack, dst)
}

// acceptInternalWrite terminates a write at the chip: control registers,
// the ack word, or internal packet memory.
func (c *Chip) acceptInternalWrite(now sim.Time, t *pcie.TLP) {
	off := uint64(t.Addr - c.plan.Internal.Base)
	switch {
	case off < RegRouteBase:
		c.writeRegister(now, off, t.Data)
	case off < AckOffset:
		c.writeRouteRegister(off, t.Data)
	case off < IntMemOffset:
		c.cm.acksRecv.Inc()
		if c.rec != nil && t.Txn != 0 {
			c.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageFlushAck,
				Where: c.name, Addr: uint64(t.Addr)})
		}
		c.dmac.handleAck(now)
	default:
		c.cm.intWrites.Inc()
		if err := c.intMem.Write(off-IntMemOffset, t.Data); err != nil {
			panic(fmt.Sprintf("peach2 %s: internal write: %v", c.name, err))
		}
		if t.Flush {
			// A flushed chain ending in this chip's buffer drains
			// here; acknowledge immediately.
			c.sendFlushAck(t.Requester, t.Txn)
		}
	}
	if c.led != nil && t.LID != 0 {
		c.led.Delivered(now, t.LID, uint64(t.Addr), t.Data, c.name)
	}
	// The write terminated here: the chip is the packet's sink.
	t.Release()
}

// writeRegister decodes a control-register store. Registers are 8-byte
// little-endian words.
func (c *Chip) writeRegister(now sim.Time, off uint64, data []byte) {
	if len(data) != 8 {
		panic(fmt.Sprintf("peach2 %s: %d-byte register write at offset %#x", c.name, len(data), off))
	}
	v := binary.LittleEndian.Uint64(data)
	switch off {
	case RegDMATable:
		c.regTable = v
	case RegDMACount:
		c.regCount = v
		c.eng.AfterComp(c.comp, c.params.DMA.DoorbellDecode, func() {
			c.dmac.start(c.eng.Now(), pcie.Addr(c.regTable), int(v))
		})
	case RegChipID, RegStatus, RegDMAStatus:
		panic(fmt.Sprintf("peach2 %s: write to read-only register %#x", c.name, off))
	default:
		panic(fmt.Sprintf("peach2 %s: write to undefined register %#x", c.name, off))
	}
}

// writeRouteRegister decodes a store into the Fig. 5 rule registers.
func (c *Chip) writeRouteRegister(off uint64, data []byte) {
	if len(data) != 8 {
		panic(fmt.Sprintf("peach2 %s: %d-byte route register write", c.name, len(data)))
	}
	v := binary.LittleEndian.Uint64(data)
	idx := (off - RegRouteBase) / RouteRuleStride
	field := (off - RegRouteBase) % RouteRuleStride / 8
	if idx >= MaxRouteRules {
		panic(fmt.Sprintf("peach2 %s: route rule %d out of range", c.name, idx))
	}
	r := &c.regRoute[idx]
	switch field {
	case 0:
		r.Mask = pcie.Addr(v)
	case 1:
		r.Lower = pcie.Addr(v)
	case 2:
		r.Upper = pcie.Addr(v)
	case 3:
		r.Out = PortID(v)
	}
	// The rule array mirrors the registers.
	c.rules = c.rules[:0]
	for _, rule := range c.regRoute {
		if rule.Mask != 0 {
			c.rules = append(c.rules, rule)
		}
	}
}

// serveInternalRead answers a host read of registers or internal memory.
func (c *Chip) serveInternalRead(now sim.Time, t *pcie.TLP, in *pcie.Port) {
	if c.led != nil && t.LID != 0 {
		c.led.Delivered(now, t.LID, uint64(t.Addr), nil, c.name)
	}
	a := c.readFree.Get()
	a.c, a.in, a.req = c, in, t.ReadReq()
	// The request terminated here; the reply works from its fields.
	t.Release()
	c.eng.AfterAction(c.comp, c.params.NConvLatency, a)
}

// internalReadAction is the pooled reply to a read of the chip's registers
// or internal memory, sent after the conversion latency.
type internalReadAction struct {
	c   *Chip
	in  *pcie.Port
	req pcie.ReadReq
}

// RunAction implements sim.Action.
func (a *internalReadAction) RunAction(now sim.Time) {
	c, in, req := a.c, a.in, a.req
	c.readFree.Put(a)
	off := uint64(req.Addr - c.plan.Internal.Base)
	var src pcie.MemReader
	switch {
	case off < RegRouteBase:
		w := new(regWord)
		binary.LittleEndian.PutUint64(w[:], c.readRegister(off))
		src, off = w, 0
	case off >= IntMemOffset:
		src, off = c.intMem, off-IntMemOffset
	default:
		panic(fmt.Sprintf("peach2 %s: read of unreadable internal offset %#x", c.name, off))
	}
	if err := pcie.SendCompletions(now, in, &c.pool, req, src, off); err != nil {
		panic(fmt.Sprintf("peach2 %s: internal read: %v", c.name, err))
	}
}

// readRegister returns the value of the control register at offset off.
func (c *Chip) readRegister(off uint64) uint64 {
	switch off {
	case RegChipID:
		return uint64(c.id)
	case RegStatus:
		return c.nios.statusWord()
	case RegDMATable:
		return c.regTable
	case RegDMACount:
		return c.regCount
	case RegDMAStatus:
		return uint64(c.dmac.status())
	default:
		panic(fmt.Sprintf("peach2 %s: read of undefined register %#x", c.name, off))
	}
}

// regWord is one 8-byte little-endian register value as a completion
// source.
type regWord [8]byte

// Read implements pcie.MemReader.
func (w *regWord) Read(off uint64, buf []byte) error {
	if off+uint64(len(buf)) > uint64(len(w)) {
		return fmt.Errorf("%d-byte read at register offset %d", len(buf), off)
	}
	copy(buf, w[off:])
	return nil
}

// raiseIRQ delivers the DMAC completion interrupt to the driver; txn is the
// completed chain's transaction ID (zero when untraced).
func (c *Chip) raiseIRQ(txn uint64) {
	c.eng.AfterComp(c.comp, c.params.DMA.IRQLatency, func() {
		c.cm.irqs.Inc()
		if c.rec != nil && txn != 0 {
			c.rec.Record(obsv.Event{At: c.eng.Now(), Txn: txn, Stage: obsv.StageIRQ,
				Where: c.name})
		}
		if c.onIRQ != nil {
			c.onIRQ(c.eng.Now())
		}
	})
}
