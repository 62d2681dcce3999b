package host

import (
	"fmt"

	"tca/internal/fault"
	"tca/internal/freelist"
	"tca/internal/memory"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// RootComplex is the node's CPU complex as seen from PCIe: the owner of
// host DRAM, the join point of the two per-socket switch trees, and the QPI
// bridge between them. Device-initiated reads and writes to DRAM terminate
// here; traffic between sockets pays the QPI penalty; peer-to-peer *reads*
// across QPI are rejected, as on the real machine ("P2P access through PCIe
// over QPI should be still prohibited", §IV-A2).
type RootComplex struct {
	node *Node
	// name is the device name, "<node>.rc", built once.
	name string
	dram *memory.RAM
	dn   [2]*pcie.Port
	// readFree recycles the DRAM read replies.
	readFree freelist.List[rcReadAction]

	sockWin [2][]pcie.Range
	qpiSer  sim.Serializer
	watches []rcWatch

	// faults injects lost read completions (nil on a perfect fabric).
	faults *fault.Injector

	// Stats
	dramWrites uint64
	dramReads  uint64
	qpiForward uint64
	// outstanding counts device reads accepted but not yet answered with
	// completions — the host-side view of the requester's tag occupancy.
	outstanding int

	// Observability (nil when disabled).
	rec         *obsv.Recorder
	led         obsv.Ledger
	mDRAMWrites *obsv.Counter
	mDRAMReads  *obsv.Counter
	mQPI        *obsv.Counter
}

type rcWatch struct {
	r  pcie.Range
	fn func(now sim.Time)
}

// instrument registers the root complex's metrics and span recorder.
func (rc *RootComplex) instrument(set *obsv.Set) {
	reg := set.Registry()
	rc.rec = set.Recorder()
	rc.led = set.Ledger()
	rc.mDRAMWrites = reg.Counter("dram_write_tlps", rc.DevName())
	rc.mDRAMReads = reg.Counter("dram_read_tlps", rc.DevName())
	rc.mQPI = reg.Counter("qpi_forwards", rc.DevName())
	set.Sampler().Register("rc_outstanding_reads", rc.DevName(), "", "reads",
		func(sim.Time, units.Duration) float64 { return float64(rc.outstanding) })
}

func newRootComplex(n *Node) *RootComplex {
	rc := &RootComplex{node: n, name: n.name + ".rc", dram: memory.NewRAM(n.params.DRAMSize)}
	rc.dn[0] = pcie.NewPort(rc, "dn0", pcie.RoleRC)
	rc.dn[1] = pcie.NewPort(rc, "dn1", pcie.RoleRC)
	return rc
}

// DevName implements pcie.Device.
func (rc *RootComplex) DevName() string { return rc.name }

func (rc *RootComplex) addSocketWindow(sock int, w pcie.Range) {
	rc.sockWin[sock] = append(rc.sockWin[sock], w)
}

func (rc *RootComplex) socketOf(a pcie.Addr) (int, bool) {
	for s := 0; s < 2; s++ {
		for _, w := range rc.sockWin[s] {
			if w.Contains(a) {
				return s, true
			}
		}
	}
	return 0, false
}

func (rc *RootComplex) dramWindow() pcie.Range {
	return pcie.Range{Base: 0, Size: uint64(rc.node.params.DRAMSize)}
}

// routeFromCPU injects a CPU-originated TLP into the fabric (PIO store).
func (rc *RootComplex) routeFromCPU(now sim.Time, t *pcie.TLP) {
	if rc.dramWindow().Contains(t.Addr) {
		// A store to host memory never leaves the CPU; model it as an
		// immediate local write.
		rc.writeDRAM(now, t)
		return
	}
	sock, ok := rc.socketOf(t.Addr)
	if !ok {
		panic(fmt.Sprintf("%s: CPU store to unmapped address %v", rc.DevName(), t.Addr))
	}
	rc.dn[sock].Send(now, t)
}

func (rc *RootComplex) writeDRAM(now sim.Time, t *pcie.TLP) {
	if err := rc.dram.Write(uint64(t.Addr), t.Data); err != nil {
		panic(fmt.Sprintf("%s: DRAM write %v: %v", rc.DevName(), t.Addr, err))
	}
	rc.dramWrites++
	rc.mDRAMWrites.Inc()
	if rc.rec != nil && t.Txn != 0 {
		rc.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageHostWrite,
			Where: rc.DevName(), Addr: uint64(t.Addr)})
	}
	hit := pcie.Range{Base: t.Addr, Size: uint64(len(t.Data))}
	for _, w := range rc.watches {
		if w.r.Overlaps(hit) {
			// fn is captured at landing: a later re-poll cannot redirect it.
			a := rc.node.pollFree.Get()
			a.n, a.fn, a.txn, a.base = rc.node, w.fn, t.Txn, w.r.Base
			rc.node.eng.AfterAction(rc.node.comp, rc.node.params.PollDetectLatency, a)
		}
	}
	if rc.led != nil && t.LID != 0 {
		rc.led.Delivered(now, t.LID, uint64(t.Addr), t.Data, rc.DevName())
	}
	// The write terminated in DRAM: the root complex is the packet's sink.
	t.Release()
}

// Accept implements pcie.Device for traffic arriving from the socket
// switches.
func (rc *RootComplex) Accept(now sim.Time, t *pcie.TLP, in *pcie.Port) units.Duration {
	fromSock := 0
	if in == rc.dn[1] {
		fromSock = 1
	}
	switch t.Kind {
	case pcie.MWr:
		if rc.dramWindow().Contains(t.Addr) {
			rc.writeDRAM(now, t)
			return rc.node.params.DRAMWriteDrain
		}
		sock, ok := rc.socketOf(t.Addr)
		if !ok {
			panic(fmt.Sprintf("%s: MWr to unmapped %v", rc.DevName(), t.Addr))
		}
		if sock == fromSock {
			panic(fmt.Sprintf("%s: MWr to %v bounced off RC back to its own socket — switch window bug", rc.DevName(), t.Addr))
		}
		// Cross-QPI peer-to-peer write: heavily serialized (§IV-A2:
		// "severely degraded by up to several hundred Mbytes/sec").
		rc.qpiForward++
		rc.mQPI.Inc()
		start := rc.qpiSer.Reserve(now, rc.node.params.QPIWriteService)
		depart := start.Add(rc.node.params.QPIWriteService).Add(rc.node.params.QPILatency)
		rc.node.eng.AtComp(rc.node.comp, depart, func() {
			rc.dn[sock].Send(rc.node.eng.Now(), t)
		})
		return 0
	case pcie.MRd:
		if rc.dramWindow().Contains(t.Addr) {
			rc.dramReads++
			rc.mDRAMReads.Inc()
			if rc.rec != nil && t.Txn != 0 {
				rc.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageHostRead,
					Where: rc.DevName(), Addr: uint64(t.Addr)})
			}
			if rc.faults.LoseCompletion() {
				// The read is accepted but its completion never leaves:
				// the requester's completion timeout must recover. The MRd
				// itself still terminated here.
				if rc.led != nil && t.LID != 0 {
					rc.led.Delivered(now, t.LID, uint64(t.Addr), nil, rc.DevName())
				}
				t.Release()
				return 0
			}
			rc.outstanding++
			if rc.rec != nil && t.Txn != 0 {
				// The requester now waits on DRAM service; the matching
				// queue-exit fires when the completion departs, so the
				// whole read turnaround is attributed as wait time.
				rc.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageQueueEnter,
					Where: rc.DevName(), Addr: uint64(t.Addr), Cause: obsv.CauseOutstandingRead})
			}
			if rc.led != nil && t.LID != 0 {
				rc.led.Delivered(now, t.LID, uint64(t.Addr), nil, rc.DevName())
			}
			a := rc.readFree.Get()
			a.rc, a.in, a.req = rc, in, t.ReadReq()
			t.Release()
			rc.node.eng.AtAction(rc.node.comp, now.Add(rc.node.params.DRAMReadLatency), a)
			return 0
		}
		panic(fmt.Sprintf("%s: peer-to-peer MRd to %v across QPI is prohibited (§IV-A2)", rc.DevName(), t.Addr))
	default:
		panic(fmt.Sprintf("%s: unexpected %v at root complex", rc.DevName(), t.Kind))
	}
}

// rcReadAction is the pooled DRAM read reply: after the read latency it
// answers req out of the port the MRd arrived on, reading each completion's
// payload straight from DRAM into the packet.
type rcReadAction struct {
	rc  *RootComplex
	in  *pcie.Port
	req pcie.ReadReq
}

// RunAction implements sim.Action.
func (a *rcReadAction) RunAction(now sim.Time) {
	rc, in, req := a.rc, a.in, a.req
	rc.readFree.Put(a)
	if rc.rec != nil && req.Txn != 0 {
		rc.rec.Record(obsv.Event{At: now, Txn: req.Txn, Stage: obsv.StageQueueExit,
			Where: rc.name, Addr: uint64(req.Addr), Cause: obsv.CauseOutstandingRead})
	}
	if err := pcie.SendCompletions(now, in, &rc.node.pool, req, rc.dram, uint64(req.Addr)); err != nil {
		panic(fmt.Sprintf("%s: DRAM read %v: %v", rc.name, req.Addr, err))
	}
	rc.outstanding--
}
