package pcie

import (
	"fmt"

	"tca/internal/fault"
	"tca/internal/fifo"
	"tca/internal/freelist"
	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/units"
)

// This file models the PCIe data-link layer on external cables — the
// reliability half of PEARL (PCI Express Adaptive and Reliable Link).
// Every transmitted TLP gets a sequence number and is held in a bounded
// replay buffer until the receiver's cumulative ACK DLLP releases it; an
// LCRC failure at the receiver NAKs the expected sequence and the sender
// goes-back-N, and a replay timer retransmits when ACKs stop arriving
// (lost frames and lost DLLPs alike). A direction that exhausts its
// replay budget declares the whole cable dead, salvages the unacknowledged
// TLPs, and hands them to the owning chip for rerouting — the hook the
// NIOS failover path builds on.
//
// The DLL is opt-in per link (EnableDLL). A link without a DLL runs the
// original lossless fast path and schedules exactly the same engine
// events as before this layer existed, so fault-free runs stay
// bit-identical with PR 2's baselines.

// DLLParams tunes the data-link layer of one link.
type DLLParams struct {
	// ReplayTimeout is how long the sender waits for ACK progress before
	// replaying the buffer unprompted (REPLAY_TIMER in the PCIe spec).
	ReplayTimeout units.Duration
	// AckNakLatency is the receiver-side delay before an ACK/NAK DLLP is
	// scheduled back to the sender (DLLP assembly + arbitration).
	AckNakLatency units.Duration
	// ReplayBufferTLPs bounds the unacknowledged TLPs per direction; a
	// full buffer backpressures the sender exactly like credit exhaustion.
	ReplayBufferTLPs int
	// MaxReplays is the replay budget: exceeding it declares the link
	// dead instead of retrying forever.
	MaxReplays int
	// BreakSalvage deliberately discards the salvageable TLPs on link
	// death instead of handing them to the DeadHandler — without telling
	// the conservation ledger. It exists only to prove the invariant
	// checker catches silent loss (cmd/tcafuzz -break-salvage); never set
	// it in a real scenario.
	BreakSalvage bool
}

// Default DLL parameters: a replay timer comfortably above one cable RTT,
// a buffer deeper than the credit pool, and the PCIe-conventional four
// replays before retrain (here: before declaring the link dead).
const (
	DefaultReplayTimeout    = units.Microsecond
	DefaultAckNakLatency    = 20 * units.Nanosecond
	DefaultReplayBufferTLPs = 64
	DefaultMaxReplays       = 4
)

// DefaultDLLParams returns the default tuning.
func DefaultDLLParams() DLLParams {
	return DLLParams{
		ReplayTimeout:    DefaultReplayTimeout,
		AckNakLatency:    DefaultAckNakLatency,
		ReplayBufferTLPs: DefaultReplayBufferTLPs,
		MaxReplays:       DefaultMaxReplays,
	}
}

func (p DLLParams) withDefaults() DLLParams {
	if p.ReplayTimeout == 0 {
		p.ReplayTimeout = DefaultReplayTimeout
	}
	if p.AckNakLatency == 0 {
		p.AckNakLatency = DefaultAckNakLatency
	}
	if p.ReplayBufferTLPs == 0 {
		p.ReplayBufferTLPs = DefaultReplayBufferTLPs
	}
	if p.MaxReplays == 0 {
		p.MaxReplays = DefaultMaxReplays
	}
	return p
}

// DeadHandler receives the TLPs salvaged from a direction of a link that
// was just declared dead: the unacknowledged replay buffer plus the
// credit-stalled queue, in transmission order. The owning device decides
// whether to park them for rerouting or drop them.
type DeadHandler func(now sim.Time, salvaged []*TLP)

// dllEntry is one unacknowledged TLP in a replay buffer.
type dllEntry struct {
	seq uint64
	tlp *TLP
}

// dllDir is the per-direction DLL state. Sequence numbers start at 1 so
// that 0 can mean "no NAK outstanding" in nakSeq.
type dllDir struct {
	nextSeq  uint64               // sequence number of the next new TLP
	buf      fifo.Queue[dllEntry] // unacknowledged TLPs, ascending seq
	expected uint64               // receiver side: next sequence to deliver
	replays  int                  // replay rounds since last ACK progress
	timerGen uint64               // invalidates stale replay timers
	nakSeq   uint64               // gap already replayed for (NAK-storm guard)
	dead     bool
	onDead   DeadHandler
}

// dll is the per-link data-link layer.
type dll struct {
	name   string
	params DLLParams
	inj    *fault.Injector
	dirs   [2]dllDir
	// free recycles the layer's scheduled events, so a frame, its ACK or
	// NAK, its credit drain and the replay timer allocate nothing in
	// steady state.
	free freelist.List[dllAction]
}

// dllEvent says what a pooled dllAction does when it runs.
type dllEvent uint8

const (
	dllFrameArrive dllEvent = iota // a frame lands at the receiver's DLL
	dllDLLPArrive                  // an ACK or NAK lands at the sender
	dllDrain                       // the receiver drained a delivered TLP
	dllReplayTimer                 // a replay timer expires
)

// dllAction is one scheduled DLL event of direction di. Each is scheduled
// once with AtAction or AfterAction, taking the one tie-break seq a
// closure would have taken, and goes back to the link's free list as it
// runs.
type dllAction struct {
	l     *Link
	event dllEvent
	di    int
	frame dllEntry // dllFrameArrive: the arriving frame
	seq   uint64   // dllDLLPArrive: the cumulative ACK/NAK seq; dllReplayTimer: the timer generation
	nak   bool     // dllDLLPArrive: a NAK, not an ACK
}

// newAction takes a recycled action for direction di.
func (l *Link) newAction(event dllEvent, di int) *dllAction {
	a := l.dll.free.Get()
	a.l, a.event, a.di = l, event, di
	return a
}

// RunAction implements sim.Action. The action is recycled before it
// acts, so whatever it schedules can reuse it.
func (a *dllAction) RunAction(now sim.Time) {
	l, x := a.l, *a
	l.dll.free.Put(a)
	switch x.event {
	case dllFrameArrive:
		d, _ := l.dirByIndex(x.di)
		l.dllArrive(now, d, x.di, x.frame)
	case dllDLLPArrive:
		l.dllpArrive(now, x.di, x.seq, x.nak)
	case dllDrain:
		l.dllDrained(now, x.di)
	case dllReplayTimer:
		l.replayTimerFired(now, x.di, x.seq)
	}
}

// EnableDLL attaches a data-link layer to the link under the given cable
// name (the name fault profiles reference in linkdown windows). It must
// be called at most once, before traffic flows.
func (l *Link) EnableDLL(name string, inj *fault.Injector, params DLLParams) {
	if l.dll != nil {
		panic(fmt.Sprintf("pcie: DLL already enabled on link %q", l.dll.name))
	}
	d := &dll{name: name, params: params.withDefaults(), inj: inj}
	d.dirs[0] = dllDir{nextSeq: 1, expected: 1}
	d.dirs[1] = dllDir{nextSeq: 1, expected: 1}
	l.dll = d
}

// DLLName reports the cable name the DLL was enabled under ("" without a
// DLL).
func (l *Link) DLLName() string {
	if l.dll == nil {
		return ""
	}
	return l.dll.name
}

// SetDeadHandler registers the salvage callback for the direction out of
// from. Requires an enabled DLL.
func (l *Link) SetDeadHandler(from *Port, fn DeadHandler) {
	if l.dll == nil {
		panic("pcie: SetDeadHandler without DLL")
	}
	_, di := l.dir(from)
	l.dll.dirs[di].onDead = fn
}

// dllBufFull reports whether the direction's replay buffer backpressures
// new transmissions.
func (l *Link) dllBufFull(di int) bool {
	return l.dll != nil && l.dll.dirs[di].buf.Len() >= l.dll.params.ReplayBufferTLPs
}

// divertDead handles a send into a dead direction: hand the TLP straight
// to the salvage handler (the chip parks it for rerouting) or drop it,
// telling the ledger the drop was deliberate.
func (l *Link) divertDead(now sim.Time, di int, t *TLP) {
	dd := &l.dll.dirs[di]
	if dd.onDead != nil {
		dd.onDead(now, []*TLP{t})
		return
	}
	if l.led != nil && t.LID != 0 {
		l.led.Dropped(now, t.LID, l.obsName, "sent into dead link, no salvage handler")
	}
}

// dllTransmit sequences a TLP into the replay buffer and puts its frame
// on the wire. The credit slot stays occupied until the receiver delivers
// the TLP (not merely until the frame lands), so lost frames keep
// backpressuring the sender until replay gets them through.
func (l *Link) dllTransmit(now sim.Time, d *linkDir, di int, t *TLP) {
	// The replay buffer aliases the packet beyond its delivery (a replay
	// round retransmits it, reading its wire size), so it must never be
	// recycled underneath the buffer: detach it from its pool for good.
	t.Pin()
	dd := &l.dll.dirs[di]
	d.inFlight++
	e := dllEntry{seq: dd.nextSeq, tlp: t}
	dd.nextSeq++
	dd.buf.Push(e)
	l.sendFrame(now, d, di, e, false)
	if dd.buf.Len() == 1 {
		l.armReplayTimer(di)
	}
}

// sendFrame reserves wire time for one sequenced frame and schedules its
// arrival at the receiver's DLL.
func (l *Link) sendFrame(now sim.Time, d *linkDir, di int, e dllEntry, replayed bool) {
	ser := units.TimeToSend(e.tlp.WireBytes(), l.params.Config.RawBandwidth())
	start := d.wire.Reserve(now, ser)
	d.reserved += ser
	if l.rec != nil && e.tlp.Txn != 0 {
		if start > now && !replayed {
			l.rec.Record(obsv.Event{At: now, Txn: e.tlp.Txn, Stage: obsv.StageQueueEnter,
				Where: l.obsName, Port: d.dst.Label, Addr: uint64(e.tlp.Addr), Cause: obsv.CauseRouteBusy})
			l.rec.Record(obsv.Event{At: start, Txn: e.tlp.Txn, Stage: obsv.StageQueueExit,
				Where: l.obsName, Port: d.dst.Label, Addr: uint64(e.tlp.Addr), Cause: obsv.CauseRouteBusy})
		}
		stage := obsv.StageLinkTx
		if replayed {
			stage = obsv.StageReplay
		}
		l.rec.Record(obsv.Event{At: start, Txn: e.tlp.Txn, Stage: stage,
			Where: l.obsName, Port: d.dst.Label, Addr: uint64(e.tlp.Addr)})
	}
	a := l.newAction(dllFrameArrive, di)
	a.frame = e
	l.eng.AtAction(l.comp, start.Add(ser).Add(l.params.Propagation), a)
}

// dllArrive is the receiver side: LCRC check, injected losses, sequence
// check, then delivery plus a cumulative ACK.
func (l *Link) dllArrive(now sim.Time, d *linkDir, di int, e dllEntry) {
	dd := &l.dll.dirs[di]
	if dd.dead {
		return
	}
	if l.dll.inj.LinkDown(l.dll.name, now) {
		return // blackholed; the replay timer recovers or kills the link
	}
	if l.dll.inj.DropTLP() {
		return // swallowed without ACK; ditto
	}
	if l.dll.inj.CorruptTLP(e.tlp.WireBytes()) {
		l.sendDLLP(now, di, dd.expected, true) // LCRC failure: NAK
		return
	}
	if e.seq != dd.expected {
		if e.seq < dd.expected {
			// Duplicate from a replay round: discard, but re-ACK in case
			// the original ACK was lost.
			l.sendDLLP(now, di, dd.expected, false)
		} else {
			// Gap: an earlier frame was lost. NAK the expected sequence.
			l.sendDLLP(now, di, dd.expected, true)
		}
		return
	}
	dd.expected++
	l.sendDLLP(now, di, dd.expected, false)
	drain := d.dst.owner.Accept(now, e.tlp, d.dst)
	if drain < 0 {
		panic(fmt.Sprintf("pcie: negative drain %v from %s", drain, d.dst.owner.DevName()))
	}
	l.eng.AfterAction(l.comp, drain, l.newAction(dllDrain, di))
}

// dllDrained returns the credit of a TLP the receiver has drained.
func (l *Link) dllDrained(now sim.Time, di int) {
	if l.dll.dirs[di].dead {
		return // credits were reset when the link died
	}
	d, _ := l.dirByIndex(di)
	d.inFlight--
	if d.inFlight < 0 {
		panic("pcie: credit underflow")
	}
	l.pump(now, d, di)
}

// sendDLLP schedules an ACK (nak=false) or NAK (nak=true) DLLP back to
// the sender of direction di. ackSeq is cumulative: every buffered entry
// below it is acknowledged. DLLPs are latency-only — they are a few bytes
// and never contend with TLPs for wire time in this model.
func (l *Link) sendDLLP(now sim.Time, di int, ackSeq uint64, nak bool) {
	a := l.newAction(dllDLLPArrive, di)
	a.seq, a.nak = ackSeq, nak
	l.eng.AfterAction(l.comp, l.dll.params.AckNakLatency+l.params.Propagation, a)
}

// dllpArrive is the sender side of the ACK/NAK protocol: release
// acknowledged entries, reset the replay budget on progress, and replay
// on a fresh NAK.
func (l *Link) dllpArrive(now sim.Time, di int, ackSeq uint64, nak bool) {
	dd := &l.dll.dirs[di]
	if dd.dead {
		return
	}
	if l.dll.inj.LinkDown(l.dll.name, now) {
		return // the DLLP is blackholed too
	}
	released := false
	for dd.buf.Len() > 0 && dd.buf.At(0).seq < ackSeq {
		dd.buf.Pop()
		released = true
	}
	if released {
		dd.replays = 0
		dd.nakSeq = 0
		dd.timerGen++ // cancel the outstanding timer
		if dd.buf.Len() > 0 {
			l.armReplayTimer(di)
		}
		d, _ := l.dirByIndex(di)
		l.pump(now, d, di)
	}
	if nak && dd.nakSeq != ackSeq && dd.buf.Len() > 0 {
		dd.nakSeq = ackSeq
		l.replay(now, di)
	}
}

// armReplayTimer starts (or restarts) direction di's replay timer.
func (l *Link) armReplayTimer(di int) {
	dd := &l.dll.dirs[di]
	dd.timerGen++
	a := l.newAction(dllReplayTimer, di)
	a.seq = dd.timerGen
	l.eng.AfterAction(l.comp, l.dll.params.ReplayTimeout, a)
}

// replayTimerFired replays direction di unless the timer of generation
// gen was cancelled or re-armed since, or nothing is left to replay.
func (l *Link) replayTimerFired(now sim.Time, di int, gen uint64) {
	dd := &l.dll.dirs[di]
	if dd.dead || gen != dd.timerGen || dd.buf.Len() == 0 {
		return
	}
	dd.nakSeq = 0 // a timeout replay clears the NAK guard
	l.replay(now, di)
}

// replay retransmits every unacknowledged frame of direction di
// (go-back-N), or declares the link dead once the budget is exhausted.
func (l *Link) replay(now sim.Time, di int) {
	dd := &l.dll.dirs[di]
	dd.replays++
	if dd.replays > l.dll.params.MaxReplays {
		l.dieDLL(now)
		return
	}
	l.dll.inj.NoteReplay()
	d, _ := l.dirByIndex(di)
	for i := 0; i < dd.buf.Len(); i++ {
		l.sendFrame(now, d, di, *dd.buf.At(i), true)
	}
	l.armReplayTimer(di)
}

// dieDLL declares the whole cable dead: both directions stop, pending
// traffic is salvaged in order (replay buffer, then credit queue) and
// handed to each side's dead handler, and credits are reset so nothing
// underflows later.
func (l *Link) dieDLL(now sim.Time) {
	l.dll.inj.NoteReplayExhausted()
	l.dll.inj.NoteLinkDead()
	for di := 0; di < 2; di++ {
		dd := &l.dll.dirs[di]
		if dd.dead {
			continue
		}
		dd.dead = true
		dd.timerGen++
		d, _ := l.dirByIndex(di)
		var salvaged []*TLP
		for dd.buf.Len() > 0 {
			salvaged = append(salvaged, dd.buf.Pop().tlp)
		}
		for d.waiting.Len() > 0 {
			salvaged = append(salvaged, d.waiting.Pop().t)
		}
		d.inFlight = 0
		if len(salvaged) == 0 {
			continue
		}
		switch {
		case l.dll.params.BreakSalvage:
			// The injected conservation bug: the TLPs vanish without a
			// Dropped attribution, which the ledger must flag at quiesce.
		case dd.onDead != nil:
			dd.onDead(now, salvaged)
		default:
			for _, t := range salvaged {
				if l.led != nil && t.LID != 0 {
					l.led.Dropped(now, t.LID, l.obsName, "link dead, no salvage handler")
				}
			}
		}
	}
}

// dirByIndex is the inverse of dir: index → direction state.
func (l *Link) dirByIndex(di int) (*linkDir, int) {
	if di == 0 {
		return &l.aToB, 0
	}
	return &l.bToA, 1
}
