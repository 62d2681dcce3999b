package check

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"tca/internal/coll"
	"tca/internal/core"
	"tca/internal/fault"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/prof"
	"tca/internal/scenariogen"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// Options tunes a checked scenario run.
type Options struct {
	// BreakSalvage arms the deliberate conservation bug in the data-link
	// layer (pcie.DLLParams.BreakSalvage): TLPs on a dying link vanish
	// without attribution. Exists to prove the checker catches it.
	BreakSalvage bool
	// PerfectFabric strips the fault schedule — the differential
	// baseline. A perfect run schedules no injector and no DLL, so it is
	// byte-identical to a plain simulation of the same op program.
	PerfectFabric bool
	// MaxEvents / MaxHost bound each engine run (0 = unlimited). A run
	// that exhausts either allowance returns a *sim.BudgetError instead
	// of a Result; the host clock flows through the blessed
	// prof.HostNanos accessor and never feeds simulated state, so two
	// runs that both finish under budget stay bit-identical.
	MaxEvents uint64
	MaxHost   time.Duration
	// KeepObs retains the run's observability set on Result.Obs so the
	// caller can export spans (e.g. a Perfetto trace) after the run. Off
	// by default: the set pins every recorded span in memory.
	KeepObs bool
}

// Budgeted reports whether either run-budget dimension is armed.
func (o Options) Budgeted() bool { return o.MaxEvents != 0 || o.MaxHost != 0 }

// Result is one checked scenario run.
type Result struct {
	Spec scenariogen.Spec
	End  sim.Time
	// OpsDone / OpsWaited count completion callbacks fired vs expected
	// (PIO stores are fire-and-forget and excluded).
	OpsDone, OpsWaited int
	ChainErrors        []string
	Summary            Summary
	// Violations merges ledger violations with the runner's quiesce
	// checks (tag accounting, parked accounting, byte conservation,
	// end-to-end payload compare). Empty means every invariant held.
	Violations []Violation
	// FullyRecovered reports that the fault schedule was fully absorbed:
	// every op completed, no chain errors, nothing lost or left parked.
	// Only then may final memory be diffed against a perfect run.
	FullyRecovered bool
	// FinalMem is the concatenated destination regions of every op, in
	// op order — the scenario's observable outcome.
	FinalMem []byte
	// Transcript is a deterministic text rendering of the whole run;
	// two runs of the same spec must produce identical transcripts.
	Transcript []byte
	// Obs is the run's observability set, retained only under
	// Options.KeepObs — the handle a trace exporter needs.
	Obs *obsv.Set

	// linkLines are the per-link byte totals rendered into Transcript.
	linkLines []string
}

// bufLen slices each node buffer into MaxOps destination slots followed
// by MaxOps source slots.
const bufLen = units.ByteSize(2 * scenariogen.MaxOps * scenariogen.SlotBytes)

func dstOff(op int) units.ByteSize {
	return units.ByteSize(op * scenariogen.SlotBytes)
}
func srcOff(op int) units.ByteSize {
	return units.ByteSize((scenariogen.MaxOps + op) * scenariogen.SlotBytes)
}

// fillStream is the xorshift generator behind op i's payload pattern,
// seeded from the spec seed — plain arithmetic, no shared RNG, so sources
// are reproducible anywhere. Each step yields one pattern byte.
type fillStream uint64

func newFillStream(seed int64, op int) fillStream {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(op+1)*0xBF58476D1CE4E5B9
	if x == 0 {
		x = 1
	}
	return fillStream(x)
}

func (f *fillStream) next() byte {
	x := uint64(*f)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*f = fillStream(x)
	return byte(x)
}

// fillBytes returns the first n bytes of op i's payload pattern.
func fillBytes(seed int64, op, n int) []byte {
	b := make([]byte, n)
	f := newFillStream(seed, op)
	for j := range b {
		b[j] = f.next()
	}
	return b
}

// regionLen is the byte length of op o's destination region: the bytes it
// writes, the whole strided span, or none for a barrier.
func regionLen(o scenariogen.Op) int {
	switch o.Kind {
	case scenariogen.OpPIO, scenariogen.OpHostPut, scenariogen.OpDMA:
		return o.Bytes
	case scenariogen.OpStride:
		return o.Stride*(o.Count-1) + o.BlockLen
	default:
		return 0
	}
}

// Run executes one scenario under the conservation ledger and audits
// every fabric invariant at quiesce.
func Run(spec scenariogen.Spec, opt Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	var sc *tcanet.SubCluster
	var err error
	if spec.DualRing {
		sc, err = tcanet.BuildDualRing(eng, spec.K, tcanet.DefaultParams)
	} else {
		sc, err = tcanet.BuildRing(eng, spec.K, tcanet.DefaultParams)
	}
	if err != nil {
		return nil, err
	}

	led := NewLedger()
	spanCap := 256
	if opt.KeepObs {
		// A retained set feeds a trace export; keep enough span events for
		// every hop of a full MaxOps program.
		spanCap = 1 << 16
	}
	set := obsv.NewSet(spanCap)
	set.Led = led
	sc.Instrument(set)

	var inj *fault.Injector
	if spec.Faults != "" && !opt.PerfectFabric {
		prof, perr := fault.ParseScenario(spec.Faults, spec.Seed)
		if perr != nil {
			return nil, perr
		}
		inj = fault.New(prof)
		dll := pcie.DefaultDLLParams()
		dll.BreakSalvage = opt.BreakSalvage
		sc.InjectFaults(inj, dll)
		sc.EnableAutoFailover()
	}

	comm, err := core.NewComm(sc)
	if err != nil {
		return nil, err
	}
	n := spec.Nodes()
	hostBufs := make([]core.HostBuffer, n)
	gpuBufs := make([][2]core.GPUBuffer, n)
	for i := 0; i < n; i++ {
		if hostBufs[i], err = comm.AllocHostBuffer(i, bufLen); err != nil {
			return nil, err
		}
		for g := 0; g < 2; g++ {
			if gpuBufs[i][g], err = comm.RegisterGPUBuffer(i, g, bufLen); err != nil {
				return nil, err
			}
		}
	}
	var col *coll.Communicator
	for _, o := range spec.Ops {
		if o.Kind == scenariogen.OpBarrier {
			if col, err = coll.New(comm); err != nil {
				return nil, err
			}
			break
		}
	}

	// Pre-fill every op's source slot so transfers move recognizable,
	// per-op payloads.
	for i, o := range spec.Ops {
		switch o.Kind {
		case scenariogen.OpHostPut:
			err = comm.WriteHost(hostBufs[o.Src], srcOff(i), fillBytes(spec.Seed, i, o.Bytes))
		case scenariogen.OpDMA:
			err = comm.WriteGPU(gpuBufs[o.Src][o.SrcGPU], srcOff(i), fillBytes(spec.Seed, i, o.Bytes))
		case scenariogen.OpStride:
			span := o.Stride*(o.Count-1) + o.BlockLen
			err = comm.WriteHost(hostBufs[o.Src], srcOff(i), fillBytes(spec.Seed, i, span))
		}
		if err != nil {
			return nil, err
		}
	}

	// The op program runs sequentially: each completion callback issues
	// the next op; PIO stores issue and fall through. A chain that fails
	// under faults still raises its IRQ, so sequencing never stalls.
	r := &Result{Spec: spec}
	for _, o := range spec.Ops {
		if o.Kind != scenariogen.OpPIO {
			r.OpsWaited++
		}
	}
	var execErr error
	next := 0
	var step func(now sim.Time)
	step = func(now sim.Time) {
		for execErr == nil && next < len(spec.Ops) {
			i := next
			o := spec.Ops[i]
			next++
			onDone := func(now sim.Time) {
				r.OpsDone++
				step(now)
			}
			switch o.Kind {
			case scenariogen.OpPIO:
				addr, aerr := comm.GlobalHost(hostBufs[o.Dst], dstOff(i))
				if aerr != nil {
					execErr = aerr
					return
				}
				execErr = comm.PIOPut(o.Src, addr, fillBytes(spec.Seed, i, o.Bytes))
				continue
			case scenariogen.OpHostPut:
				execErr = comm.PutToHost(hostBufs[o.Dst], dstOff(i), o.Src,
					hostBufs[o.Src].Bus+pcie.Addr(srcOff(i)), units.ByteSize(o.Bytes), onDone)
			case scenariogen.OpDMA:
				execErr = comm.MemcpyPeer(gpuBufs[o.Dst][o.DstGPU], dstOff(i),
					gpuBufs[o.Src][o.SrcGPU], srcOff(i), units.ByteSize(o.Bytes), onDone)
			case scenariogen.OpStride:
				addr, aerr := comm.GlobalHost(hostBufs[o.Dst], dstOff(i))
				if aerr != nil {
					execErr = aerr
					return
				}
				bs := core.BlockStride{
					BlockLen:  units.ByteSize(o.BlockLen),
					Count:     o.Count,
					SrcStride: units.ByteSize(o.Stride),
					DstStride: units.ByteSize(o.Stride),
				}
				execErr = comm.PutBlockStride(o.Src, hostBufs[o.Src].Bus+pcie.Addr(srcOff(i)), addr, bs, onDone)
			case scenariogen.OpBarrier:
				rounds := o.Rounds
				var again func(now sim.Time)
				again = func(now sim.Time) {
					rounds--
					if rounds == 0 {
						onDone(now)
						return
					}
					col.Barrier(again)
				}
				col.Barrier(again)
			}
			return
		}
	}
	step(0)
	if execErr != nil {
		return nil, execErr
	}
	var hostStart int64
	if opt.Budgeted() {
		eng.SetHostClock(prof.HostNanos)
		eng.SetBudget(opt.MaxEvents, opt.MaxHost)
		hostStart = prof.HostNanos()
	}
	_, reason := eng.Run()
	if reason.BudgetExceeded() {
		return nil, &sim.BudgetError{
			Reason: reason,
			Events: eng.BudgetUsed(),
			Host:   time.Duration(prof.HostNanos() - hostStart),
		}
	}
	if execErr != nil {
		return nil, execErr
	}
	r.End = eng.Now()

	for i := 0; i < n; i++ {
		if cerr := comm.ChainError(i); cerr != nil {
			r.ChainErrors = append(r.ChainErrors, fmt.Sprintf("node %d: %v", i, cerr))
		}
	}

	// Capture the observable outcome: every op's destination region, read
	// straight into its place in FinalMem.
	total := 0
	for _, o := range spec.Ops {
		total += regionLen(o)
	}
	r.FinalMem = make([]byte, total)
	at := 0
	for i, o := range spec.Ops {
		region := r.FinalMem[at : at+regionLen(o)]
		at += len(region)
		var rerr error
		switch o.Kind {
		case scenariogen.OpPIO, scenariogen.OpHostPut, scenariogen.OpStride:
			rerr = comm.ReadHostInto(hostBufs[o.Dst], dstOff(i), region)
		case scenariogen.OpDMA:
			rerr = comm.ReadGPUInto(gpuBufs[o.Dst][o.DstGPU], dstOff(i), region)
		}
		if rerr != nil {
			return nil, rerr
		}
	}

	r.Summary = led.Audit(r.End)
	r.Violations = append(r.Violations, led.Violations()...)
	r.auditFabric(sc, set, led)

	r.FullyRecovered = r.OpsDone == r.OpsWaited && len(r.ChainErrors) == 0 &&
		r.Summary.HarmfulDrops == 0 && r.Summary.ParkedAtQuiesce == 0
	if r.FullyRecovered {
		r.checkEndToEnd()
	}
	r.Transcript = r.transcript(inj)
	if opt.KeepObs {
		r.Obs = set
	}
	return r, nil
}

// auditFabric runs the quiesce checks that need the hardware, not just
// the ledger: completion-tag accounting, parked-packet accounting, and
// the per-link byte conservation cross-check between the link's own
// counters, the metrics registry, and the ledger.
func (r *Result) auditFabric(sc *tcanet.SubCluster, set *obsv.Set, led *Ledger) {
	reg := set.Registry()
	parked := 0
	sc.WalkChipLinks(func(chip *peach2.Chip) {
		if out := chip.DMAC().OutstandingReads(); out != 0 {
			r.Violations = append(r.Violations, Violation{
				At: r.End, Rule: "tags-outstanding", Where: chip.DevName(),
				Detail: fmt.Sprintf("%d reads still hold completion tags at quiesce", out)})
		}
		parked += chip.Parked()
	}, func(l *pcie.Link, name string) {
		_, bytes := l.Stats()
		for di, dir := range [2]string{"ab", "ba"} {
			counted, _ := reg.CounterValue("link_bytes_tx", name, obsv.Label{Key: "dir", Value: dir})
			ledger := led.LinkTotal(name, dir)
			if uint64(bytes[di]) != counted || counted != ledger {
				r.Violations = append(r.Violations, Violation{
					At: r.End, Rule: "byte-conservation", Where: name,
					Detail: fmt.Sprintf("dir %s: link says %d B, registry says %d B, ledger says %d B",
						dir, uint64(bytes[di]), counted, ledger)})
			}
		}
	})
	if parked != r.Summary.ParkedAtQuiesce {
		r.Violations = append(r.Violations, Violation{
			At: r.End, Rule: "parked-accounting", Where: "fabric",
			Detail: fmt.Sprintf("chips hold %d parked TLPs, ledger has %d parked at quiesce",
				parked, r.Summary.ParkedAtQuiesce)})
	}
	// Host-internal links aren't reachable as objects from here, but the
	// registry still carries their counters: cross-check every link the
	// ledger ever saw.
	for _, k := range led.linkKeys() {
		total := led.linkBytes[k]
		r.linkLines = append(r.linkLines, fmt.Sprintf("link %s %s bytes=%d", k.link, k.dir, total))
		counted, ok := reg.CounterValue("link_bytes_tx", k.link, obsv.Label{Key: "dir", Value: k.dir})
		if !ok || counted != total {
			r.Violations = append(r.Violations, Violation{
				At: r.End, Rule: "byte-conservation", Where: k.link,
				Detail: fmt.Sprintf("dir %s: registry says %d B (present=%v), ledger says %d B",
					k.dir, counted, ok, total)})
		}
	}
}

// checkEndToEnd verifies payload integrity op by op: on a fully recovered
// run every destination region must hold exactly the source pattern —
// faults may change timing, never contents. Each op's pattern stream is
// regenerated and compared in place; a strided op's gaps between blocks
// must read zero.
func (r *Result) checkEndToEnd() {
	off := 0
	for i, o := range r.Spec.Ops {
		n, block, stride := o.Bytes, o.Bytes, o.Bytes
		switch o.Kind {
		case scenariogen.OpBarrier:
			continue
		case scenariogen.OpStride:
			n = o.Stride*(o.Count-1) + o.BlockLen
			block, stride = o.BlockLen, o.Stride
		}
		got := r.FinalMem[off : off+n]
		off += n
		f := newFillStream(r.Spec.Seed, i)
		col := 0 // offset of byte j within its stride
		for j, g := range got {
			want := f.next()
			if col >= block {
				want = 0
			}
			if col++; col == stride {
				col = 0
			}
			if g != want {
				r.Violations = append(r.Violations, Violation{
					At: r.End, Rule: "end-to-end-payload", Where: fmt.Sprintf("op %d", i),
					Detail: fmt.Sprintf("destination byte %d is %#02x, want %#02x (first mismatch)",
						j, g, want)})
				break
			}
		}
	}
}

// transcript renders the run deterministically; byte-equal transcripts
// across runs of the same spec are the determinism invariant.
func (r *Result) transcript(inj *fault.Injector) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "spec:\n%s", scenariogen.Format(r.Spec))
	fmt.Fprintf(&b, "end=%v\n", r.End)
	fmt.Fprintf(&b, "ops_done=%d/%d\n", r.OpsDone, r.OpsWaited)
	for _, ll := range r.linkLines {
		fmt.Fprintf(&b, "%s\n", ll)
	}
	for _, ce := range r.ChainErrors {
		fmt.Fprintf(&b, "chain_error %s\n", ce)
	}
	s := r.Summary
	fmt.Fprintf(&b, "ledger born=%d delivered=%d dup_salvage=%d benign_drops=%d harmful_drops=%d parked=%d\n",
		s.Born, s.Delivered, s.DupSalvage, s.BenignDrops, s.HarmfulDrops, s.ParkedAtQuiesce)
	if inj != nil {
		fmt.Fprintf(&b, "injector %+v\n", inj.Counts())
	}
	h := fnv.New64a()
	h.Write(r.FinalMem)
	fmt.Fprintf(&b, "mem_fnv=%016x len=%d\n", h.Sum64(), len(r.FinalMem))
	fmt.Fprintf(&b, "fully_recovered=%v\n", r.FullyRecovered)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation %s\n", v)
	}
	return []byte(b.String())
}
