package host

import (
	"fmt"

	"tca/internal/fault"
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
	dram *memory.RAM
	dn   [2]*pcie.Port

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
	r pcie.Range
	// fn receives the landing time and the writing TLP's transaction ID so
	// a traced write's poll detection closes the same span.
	fn func(at sim.Time, txn uint64)
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
	rc := &RootComplex{node: n, dram: memory.NewRAM(n.params.DRAMSize)}
	rc.dn[0] = pcie.NewPort(rc, "dn0", pcie.RoleRC)
	rc.dn[1] = pcie.NewPort(rc, "dn1", pcie.RoleRC)
	return rc
}

// DevName implements pcie.Device.
func (rc *RootComplex) DevName() string { return rc.node.name + ".rc" }

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

func (rc *RootComplex) watch(r pcie.Range, fn func(at sim.Time, txn uint64)) {
	rc.watches = append(rc.watches, rcWatch{r: r, fn: fn})
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
			w.fn(now, t.Txn)
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
			req := *t
			t.Release()
			reply := now.Add(rc.node.params.DRAMReadLatency)
			rc.node.eng.AtComp(rc.node.comp, reply, func() {
				data, err := rc.dram.ReadBytes(uint64(req.Addr), req.ReadLen)
				if err != nil {
					panic(fmt.Sprintf("%s: DRAM read %v: %v", rc.DevName(), req.Addr, err))
				}
				if rc.rec != nil && req.Txn != 0 {
					rc.rec.Record(obsv.Event{At: rc.node.eng.Now(), Txn: req.Txn, Stage: obsv.StageQueueExit,
						Where: rc.DevName(), Addr: uint64(req.Addr), Cause: obsv.CauseOutstandingRead})
				}
				maxPayload := in.Link().Params().MaxPayload
				for _, c := range pcie.SplitCompletion(&req, data, maxPayload) {
					in.Send(rc.node.eng.Now(), c)
				}
				rc.outstanding--
			})
			return 0
		}
		panic(fmt.Sprintf("%s: peer-to-peer MRd to %v across QPI is prohibited (§IV-A2)", rc.DevName(), t.Addr))
	default:
		panic(fmt.Sprintf("%s: unexpected %v at root complex", rc.DevName(), t.Kind))
	}
}
