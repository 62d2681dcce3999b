package pcie

import (
	"fmt"

	"tca/internal/fifo"
	"tca/internal/obsv"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/units"
)

// Device is anything attached to a PCIe port: a root complex, a memory
// endpoint, a GPU, a switch, or a PEACH2 chip.
type Device interface {
	// DevName identifies the device in traces and errors.
	DevName() string
	// Accept delivers a TLP that arrived on port p at time now. The
	// return value is how long the ingress buffer slot stays occupied;
	// the link withholds that flow-control credit until it elapses, which
	// is how a slow sink backpressures a fast sender.
	Accept(now sim.Time, t *TLP, p *Port) units.Duration
}

// Port is one end of a link, owned by a device. A device with several ports
// (PEACH2 has four) distinguishes them by the Label it assigned.
type Port struct {
	owner Device
	link  *Link
	role  Role
	// Label names the port on its device ("N", "E", "W", "S", "up",
	// "down0", ...).
	Label string
}

// NewPort creates an unconnected port for owner.
func NewPort(owner Device, label string, role Role) *Port {
	if owner == nil {
		panic("pcie: NewPort with nil owner")
	}
	return &Port{owner: owner, Label: label, role: role}
}

// Owner returns the device the port belongs to.
func (p *Port) Owner() Device { return p.owner }

// SetRole reconfigures the port's role. PEACH2's Port S is "selectable as RC
// or EP" (§III-D); reconfiguration is only legal while disconnected.
func (p *Port) SetRole(r Role) {
	if p.link != nil {
		panic(fmt.Sprintf("pcie: SetRole on connected port %v", p))
	}
	p.role = r
}

// Connected reports whether the port has a link.
func (p *Port) Connected() bool { return p.link != nil }

// Link returns the attached link, or nil.
func (p *Port) Link() *Link { return p.link }

// Peer returns the port at the other end of the link, or nil when
// disconnected.
func (p *Port) Peer() *Port {
	if p.link == nil {
		return nil
	}
	if p.link.a == p {
		return p.link.b
	}
	return p.link.a
}

// Send transmits a TLP out of this port at time now.
func (p *Port) Send(now sim.Time, t *TLP) {
	if p.link == nil {
		panic(fmt.Sprintf("pcie: Send on disconnected port %v", p))
	}
	p.link.send(now, p, t)
}

// String formats as "device.label(ROLE)".
func (p *Port) String() string {
	return fmt.Sprintf("%s.%s(%v)", p.owner.DevName(), p.Label, p.role)
}

// LinkParams tunes a link's timing and flow control.
type LinkParams struct {
	Config LinkConfig
	// Propagation is the one-way flight latency: SerDes, equalization,
	// and for external cables the cable itself.
	Propagation units.Duration
	// MaxPayload bounds MWr/CplD payloads. Zero means DefaultMaxPayload.
	MaxPayload units.ByteSize
	// CreditTLPs is the per-direction count of in-flight-or-undrained
	// TLPs before the sender stalls (receiver buffer depth in packets).
	// Zero means DefaultCreditTLPs.
	CreditTLPs int
}

// DefaultCreditTLPs is a generous ingress buffer: 32 packets ≈ 8 KiB of
// posted data, matching the multi-kilobyte FPGA RX FIFOs.
const DefaultCreditTLPs = 32

func (p LinkParams) withDefaults() LinkParams {
	if p.MaxPayload == 0 {
		p.MaxPayload = DefaultMaxPayload
	}
	if p.CreditTLPs == 0 {
		p.CreditTLPs = DefaultCreditTLPs
	}
	return p
}

// Link is a full-duplex point-to-point PCIe link: two independent directions
// each with a serializer (one packet on the wire at a time) and a credit
// pool (receiver buffer slots).
type Link struct {
	eng    *sim.Engine
	params LinkParams
	a, b   *Port
	aToB   linkDir
	bToA   linkDir

	// Stats
	tlpsSent  [2]uint64
	bytesSent [2]units.ByteSize

	// dll is the optional data-link layer (see dll.go). Nil means the
	// original lossless fast path — same events, same schedule.
	dll *dll

	// deliverFree recycles the delivery actions of the lossless fast
	// path, so steady-state traffic schedules arrival and drain without
	// allocating.
	deliverFree []*deliverAction

	// Observability (nil when disabled — all updates are no-ops then).
	obsName  string
	rec      *obsv.Recorder
	led      obsv.Ledger
	mTLPs    [2]*obsv.Counter
	mBytes   [2]*obsv.Counter
	mStalled [2]*obsv.Counter

	// comp is the link's host-time attribution tag (0 when unprofiled):
	// delivery, credit-release, and DLL replay events charge to it.
	comp sim.CompID
}

// queuedTLP is one credit- or replay-stalled packet plus the cause it is
// blocked on, so the queue-exit span event can attribute the whole wait.
type queuedTLP struct {
	t     *TLP
	cause obsv.Cause
}

type linkDir struct {
	l        *Link
	di       int
	wire     sim.Serializer
	inFlight int
	waiting  fifo.Queue[queuedTLP]
	dst      *Port
	// reserved accumulates every wire reservation, so telemetry can
	// compute the direction's exact busy time up to any instant as
	// reserved − max(0, nextFree − now).
	reserved units.Duration
	// first and last bound the lossless path's packets on the wire, in
	// arrival order. Wire starts are serialized and propagation is fixed,
	// so their (at, seq) keys strictly increase: only first has an event
	// on the engine heap (the direction itself, as a sim.Action).
	first, last *deliverAction
}

// Connect joins two ports with a link. Exactly one port must be RC-side and
// one EP-side — the PCIe constraint that motivates PEACH2's fixed E=EP,
// W=RC ring design.
func Connect(eng *sim.Engine, a, b *Port, params LinkParams) (*Link, error) {
	if eng == nil {
		return nil, fmt.Errorf("pcie: Connect with nil engine")
	}
	if a == nil || b == nil {
		return nil, fmt.Errorf("pcie: Connect with nil port")
	}
	if a.link != nil || b.link != nil {
		return nil, fmt.Errorf("pcie: port already connected (%v / %v)", a, b)
	}
	if a.role == b.role {
		return nil, fmt.Errorf("pcie: cannot link two %v ports (%v — %v): a PCIe link joins one RC to one EP", a.role, a, b)
	}
	if err := params.Config.Validate(); err != nil {
		return nil, err
	}
	params = params.withDefaults()
	l := &Link{eng: eng, params: params, a: a, b: b}
	l.aToB = linkDir{l: l, di: 0, dst: b}
	l.bToA = linkDir{l: l, di: 1, dst: a}
	a.link = l
	b.link = l
	return l, nil
}

// MustConnect is Connect for statically-built topologies.
func MustConnect(eng *sim.Engine, a, b *Port, params LinkParams) *Link {
	l, err := Connect(eng, a, b, params)
	if err != nil {
		panic(fmt.Sprintf("pcie: MustConnect: %v", err))
	}
	return l
}

// Params returns the link's configuration.
func (l *Link) Params() LinkParams { return l.params }

// Instrument attaches the link to an observability set under the given
// name: per-direction TLP/byte/credit-stall counters in the registry,
// StageLinkTx span events for traced packets, and telemetry probes for
// utilization, credit-queue depth, and in-flight TLPs. Direction labels
// follow the port order passed to Connect ("ab" = a→b).
func (l *Link) Instrument(set *obsv.Set, name string) {
	reg := set.Registry()
	l.obsName = name
	l.rec = set.Recorder()
	l.led = set.Ledger()
	for i, d := range dirLabels {
		l.mTLPs[i] = reg.Counter("link_tlps_tx", name, obsv.Label{Key: "dir", Value: d})
		l.mBytes[i] = reg.Counter("link_bytes_tx", name, obsv.Label{Key: "dir", Value: d})
		l.mStalled[i] = reg.Counter("link_credit_stalls", name, obsv.Label{Key: "dir", Value: d})
	}
	l.registerProbes(set.Sampler(), name)
}

// Profile registers the link with an engine profiler under name, so the
// host CPU cost of simulating its wire (delivery events, credit pumps, DLL
// replays) is attributed to it. Safe with a nil profiler.
func (l *Link) Profile(p *prof.Profiler, name string) {
	l.comp = p.Component(name)
}

// registerProbes wires the link's telemetry series. Probes only read
// direction state (the sampler contract), so sampling never perturbs wire
// timing.
func (l *Link) registerProbes(sam *obsv.Sampler, name string) {
	if sam == nil {
		return
	}
	dirs := [2]*linkDir{&l.aToB, &l.bToA}
	labels := [2]string{"ab", "ba"}
	for i, d := range dirs {
		d := d
		var lastBusy units.Duration
		sam.Register("link_util", name, labels[i], "%", func(now sim.Time, elapsed units.Duration) float64 {
			// Exact busy time through now: everything reserved on the
			// wire minus the portion booked beyond the present.
			busy := d.reserved
			if ahead := d.wire.NextFree().Sub(now); ahead > 0 {
				busy -= ahead
			}
			delta := busy - lastBusy
			lastBusy = busy
			if elapsed <= 0 {
				return 0
			}
			return 100 * float64(delta) / float64(elapsed)
		})
		sam.Register("link_queued", name, labels[i], "tlps", func(sim.Time, units.Duration) float64 {
			return float64(d.waiting.Len())
		})
		sam.Register("link_inflight", name, labels[i], "tlps", func(sim.Time, units.Duration) float64 {
			return float64(d.inFlight)
		})
	}
}

// dirLabels are the direction labels shared by the registry counters and
// the conservation ledger: index 0 is the a→b direction of Connect order.
var dirLabels = [2]string{"ab", "ba"}

// Stats reports TLP and byte counts sent from port a→b and b→a.
func (l *Link) Stats() (tlps [2]uint64, bytes [2]units.ByteSize) {
	return l.tlpsSent, l.bytesSent
}

func (l *Link) dir(from *Port) (*linkDir, int) {
	switch from {
	case l.a:
		return &l.aToB, 0
	case l.b:
		return &l.bToA, 1
	default:
		panic(fmt.Sprintf("pcie: port %v does not belong to link", from))
	}
}

// send queues or transmits a TLP in the from-port's direction.
func (l *Link) send(now sim.Time, from *Port, t *TLP) {
	if err := t.Validate(l.params.MaxPayload); err != nil {
		panic(fmt.Sprintf("pcie: invalid TLP on %v: %v", from, err))
	}
	d, di := l.dir(from)
	if l.dll != nil && l.dll.dirs[di].dead {
		l.divertDead(now, di, t)
		return
	}
	l.tlpsSent[di]++
	l.bytesSent[di] += t.WireBytes()
	l.mTLPs[di].Inc()
	l.mBytes[di].Add(uint64(t.WireBytes()))
	if l.led != nil {
		if t.LID == 0 {
			t.LID = l.led.Born(now, t.Kind.String(), uint64(t.Addr), t.Data, l.obsName)
		}
		l.led.LinkBytes(l.obsName, dirLabels[di], uint64(t.WireBytes()))
	}
	if d.inFlight >= l.params.CreditTLPs || l.dllBufFull(di) {
		l.mStalled[di].Inc()
		cause := obsv.CauseCredits
		if l.dllBufFull(di) {
			cause = obsv.CauseReplay
		}
		if l.rec != nil && t.Txn != 0 {
			l.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageQueueEnter,
				Where: l.obsName, Port: d.dst.Label, Addr: uint64(t.Addr), Cause: cause})
		}
		d.waiting.Push(queuedTLP{t: t, cause: cause})
		return
	}
	l.transmit(now, d, di, t)
}

// transmit reserves wire time and schedules delivery. With a DLL the
// frame is sequenced through the replay buffer instead.
func (l *Link) transmit(now sim.Time, d *linkDir, di int, t *TLP) {
	if l.dll != nil {
		l.dllTransmit(now, d, di, t)
		return
	}
	d.inFlight++
	ser := units.TimeToSend(t.WireBytes(), l.params.Config.RawBandwidth())
	start := d.wire.Reserve(now, ser)
	d.reserved += ser
	if l.rec != nil && t.Txn != 0 {
		if start > now {
			// The wire is busy with earlier packets: the TLP holds a
			// credit but queues behind the serializer backlog.
			l.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageQueueEnter,
				Where: l.obsName, Port: d.dst.Label, Addr: uint64(t.Addr), Cause: obsv.CauseRouteBusy})
			l.rec.Record(obsv.Event{At: start, Txn: t.Txn, Stage: obsv.StageQueueExit,
				Where: l.obsName, Port: d.dst.Label, Addr: uint64(t.Addr), Cause: obsv.CauseRouteBusy})
		}
		l.rec.Record(obsv.Event{At: start, Txn: t.Txn, Stage: obsv.StageLinkTx,
			Where: l.obsName, Port: d.dst.Label, Addr: uint64(t.Addr)})
	}
	a := l.newDeliver(d, t)
	a.at = start.Add(ser).Add(l.params.Propagation)
	a.seq = l.eng.ReserveSeqs(1)
	if d.last == nil {
		d.first = a
		d.arm()
	} else {
		d.last.next = a
	}
	d.last = a
}

// arm schedules the direction's next arrival under the seq transmit
// reserved for it.
func (d *linkDir) arm() {
	d.l.eng.AtActionSeq(d.l.comp, d.first.at, d.first.seq, d)
}

// RunAction implements sim.Action: the earliest packet on the wire lands.
// The direction re-arms for the next arrival, hands the TLP to the
// receiving device, and schedules the packet's deliverAction to return its
// flow-control credit once the receiver has drained it.
func (d *linkDir) RunAction(now sim.Time) {
	a := d.first
	d.first, a.next = a.next, nil
	if d.first == nil {
		d.last = nil
	} else {
		d.arm()
	}
	t := a.t
	a.t = nil // the receiver owns (and may release) the packet now
	drain := d.dst.owner.Accept(now, t, d.dst)
	if drain < 0 {
		panic(fmt.Sprintf("pcie: negative drain %v from %s", drain, d.dst.owner.DevName()))
	}
	d.l.eng.AfterAction(d.l.comp, drain, a)
}

// deliverAction is one packet's trip over the lossless fast path. On the
// wire it waits in its direction's arrival list under the (at, seq) key
// transmit reserved; after delivery it is the drain event that returns the
// flow-control credit and pumps the queue. Pooled per link, so a hop
// allocates nothing in steady state.
type deliverAction struct {
	d    *linkDir
	t    *TLP
	at   sim.Time
	seq  uint64
	next *deliverAction
}

func (l *Link) newDeliver(d *linkDir, t *TLP) *deliverAction {
	if n := len(l.deliverFree) - 1; n >= 0 {
		a := l.deliverFree[n]
		l.deliverFree[n] = nil
		l.deliverFree = l.deliverFree[:n]
		a.d, a.t = d, t
		return a
	}
	return &deliverAction{d: d, t: t}
}

// RunAction implements sim.Action: the drain phase.
func (a *deliverAction) RunAction(now sim.Time) { a.d.drained(now, a) }

// drained recycles a, whose packet the receiver has drained, and returns
// the packet's flow-control credit.
func (d *linkDir) drained(now sim.Time, a *deliverAction) {
	*a = deliverAction{}
	d.l.deliverFree = append(d.l.deliverFree, a)
	d.inFlight--
	if d.inFlight < 0 {
		panic("pcie: credit underflow")
	}
	d.l.pump(now, d, d.di)
}

// pump moves queued TLPs onto the wire as capacity frees up. Without a
// DLL exactly one packet is pumped per credit release (the original
// schedule); with one, a cumulative ACK can release several replay-buffer
// slots at once, so pump loops until a limit binds again.
func (l *Link) pump(now sim.Time, d *linkDir, di int) {
	for d.waiting.Len() > 0 && d.inFlight < l.params.CreditTLPs && !l.dllBufFull(di) {
		next := d.waiting.Pop()
		if l.rec != nil && next.t.Txn != 0 {
			l.rec.Record(obsv.Event{At: now, Txn: next.t.Txn, Stage: obsv.StageQueueExit,
				Where: l.obsName, Port: d.dst.Label, Addr: uint64(next.t.Addr), Cause: next.cause})
		}
		l.transmit(now, d, di, next.t)
		if l.dll == nil {
			return
		}
	}
}

// QueuedTLPs reports how many packets wait for credits in the direction out
// of from.
func (l *Link) QueuedTLPs(from *Port) int {
	d, _ := l.dir(from)
	return d.waiting.Len()
}
