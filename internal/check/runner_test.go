package check

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tca/internal/scenariogen"
)

func mustRun(t *testing.T, spec scenariogen.Spec, opt Options) *Result {
	t.Helper()
	r, err := Run(spec, opt)
	if err != nil {
		t.Fatalf("Run: %v\nspec:\n%s", err, scenariogen.Format(spec))
	}
	return r
}

func assertClean(t *testing.T, r *Result) {
	t.Helper()
	if len(r.Violations) != 0 {
		t.Fatalf("violations:\n%s\ntranscript:\n%s", violationList(r), r.Transcript)
	}
}

func violationList(r *Result) string {
	var b strings.Builder
	for _, v := range r.Violations {
		b.WriteString("  " + v.String() + "\n")
	}
	return b.String()
}

// TestRunPerfectFabric: every op kind on a clean fabric completes, every
// invariant holds, and the payloads land exactly.
func TestRunPerfectFabric(t *testing.T) {
	spec := scenariogen.Spec{
		Seed: 7, K: 4,
		Ops: []scenariogen.Op{
			{Kind: scenariogen.OpPIO, Src: 0, Dst: 2, Bytes: 64},
			{Kind: scenariogen.OpHostPut, Src: 1, Dst: 3, Bytes: 4096},
			{Kind: scenariogen.OpDMA, Src: 0, SrcGPU: 0, Dst: 1, DstGPU: 1, Bytes: 8192},
			{Kind: scenariogen.OpStride, Src: 2, Dst: 0, BlockLen: 256, Count: 4, Stride: 512},
			{Kind: scenariogen.OpBarrier, Rounds: 2},
		},
	}
	r := mustRun(t, spec, Options{})
	assertClean(t, r)
	if !r.FullyRecovered {
		t.Fatalf("perfect fabric did not fully recover:\n%s", r.Transcript)
	}
	if r.Summary.Born == 0 || r.Summary.Delivered == 0 {
		t.Fatalf("ledger saw no traffic: %+v", r.Summary)
	}
	if r.OpsDone != r.OpsWaited || r.OpsDone != 4 {
		t.Fatalf("ops %d/%d", r.OpsDone, r.OpsWaited)
	}
}

// TestRunDualRing: the Port-S coupled topology under the same checks.
func TestRunDualRing(t *testing.T) {
	spec := scenariogen.Spec{
		Seed: 9, DualRing: true, K: 2,
		Ops: []scenariogen.Op{
			{Kind: scenariogen.OpHostPut, Src: 0, Dst: 3, Bytes: 2048}, // crosses the S coupling
			{Kind: scenariogen.OpDMA, Src: 3, SrcGPU: 1, Dst: 1, DstGPU: 0, Bytes: 1024},
			{Kind: scenariogen.OpBarrier, Rounds: 1},
		},
	}
	r := mustRun(t, spec, Options{})
	assertClean(t, r)
	if !r.FullyRecovered {
		t.Fatalf("dual ring did not recover:\n%s", r.Transcript)
	}
}

// TestRunLinkDeathMidChain: a permanent cut while a DMA chain is in
// flight with outstanding completions. The DLL salvages the replay
// buffer, failover reroutes the ring, parked traffic re-injects — and the
// conservation ledger must balance to the byte.
func TestRunLinkDeathMidChain(t *testing.T) {
	spec := scenariogen.Spec{
		Seed: 3, K: 4,
		// Cut node 0's eastward cable 5us in, while op 0's chain is
		// still streaming 0->1 over exactly that cable.
		Faults: "linkdown:0e:5us",
		Ops: []scenariogen.Op{
			{Kind: scenariogen.OpDMA, Src: 0, SrcGPU: 0, Dst: 1, DstGPU: 0, Bytes: 65536},
			{Kind: scenariogen.OpHostPut, Src: 1, Dst: 2, Bytes: 4096},
		},
	}
	r := mustRun(t, spec, Options{})
	assertClean(t, r)
	if got := r.Summary; got.Born == 0 {
		t.Fatalf("no traffic: %+v", got)
	}
}

// TestRunDoubleFailover: a second cut in the same ring after the first
// reroute. There may be no surviving arc; data loss must be attributed
// (harmful drops or parked-at-quiesce), never silent — and the ledger
// must still balance.
func TestRunDoubleFailover(t *testing.T) {
	spec := scenariogen.Spec{
		Seed: 5, K: 4,
		Faults: "linkdown:0e:5us,linkdown:2e:200us",
		Ops: []scenariogen.Op{
			{Kind: scenariogen.OpDMA, Src: 0, SrcGPU: 0, Dst: 1, DstGPU: 0, Bytes: 65536},
			{Kind: scenariogen.OpHostPut, Src: 0, Dst: 2, Bytes: 32768},
			{Kind: scenariogen.OpHostPut, Src: 3, Dst: 1, Bytes: 32768},
		},
	}
	r := mustRun(t, spec, Options{})
	assertClean(t, r)
}

// TestRunDeterminism: the same spec twice, byte-identical transcripts —
// including a faulty scenario exercising replay and failover.
func TestRunDeterminism(t *testing.T) {
	for _, spec := range []scenariogen.Spec{
		scenariogen.Generate(101),
		{Seed: 3, K: 4, Faults: "linkdown:0e:5us,ber:1e-07",
			Ops: []scenariogen.Op{{Kind: scenariogen.OpDMA, Src: 0, Dst: 1, Bytes: 65536}}},
	} {
		a := mustRun(t, spec, Options{})
		b := mustRun(t, spec, Options{})
		if !bytes.Equal(a.Transcript, b.Transcript) {
			t.Fatalf("nondeterministic transcript for spec:\n%s\nrun A:\n%s\nrun B:\n%s",
				scenariogen.Format(spec), a.Transcript, b.Transcript)
		}
	}
}

// TestRunDiffFaultsDontChangeMemory: the full differential protocol on a
// recoverable fault schedule — final memory must match the perfect run.
func TestRunDiffFaultsDontChangeMemory(t *testing.T) {
	spec := scenariogen.Spec{
		Seed: 3, K: 4,
		Faults: "linkdown:0e:5us",
		Ops: []scenariogen.Op{
			{Kind: scenariogen.OpDMA, Src: 0, SrcGPU: 0, Dst: 1, DstGPU: 0, Bytes: 65536},
			{Kind: scenariogen.OpHostPut, Src: 1, Dst: 2, Bytes: 4096},
		},
	}
	d, err := RunDiff(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed() {
		t.Fatalf("differential failed:\n%s", strings.Join(d.Failures, "\n"))
	}
	if !d.DeterminismOK {
		t.Fatal("determinism check did not pass")
	}
	if d.Faulty.FullyRecovered && !d.MemoryChecked {
		t.Fatal("memory diff skipped despite full recovery")
	}
}

// TestRunBreakSalvageDetected: the deliberately injected conservation bug
// — link death discards its salvageable TLPs without attribution — must
// surface as lost-without-attribution, and the shrinker must reduce the
// failing spec while keeping it failing.
func TestRunBreakSalvageDetected(t *testing.T) {
	spec := scenariogen.Spec{
		Seed: 3, K: 4,
		Faults: "linkdown:0e:5us",
		Ops: []scenariogen.Op{
			{Kind: scenariogen.OpHostPut, Src: 1, Dst: 2, Bytes: 512},
			{Kind: scenariogen.OpDMA, Src: 0, SrcGPU: 0, Dst: 1, DstGPU: 0, Bytes: 65536},
			{Kind: scenariogen.OpBarrier, Rounds: 1},
		},
	}
	r := mustRun(t, spec, Options{BreakSalvage: true})
	found := false
	for _, v := range r.Violations {
		if v.Rule == "lost-without-attribution" {
			found = true
		}
	}
	if !found {
		t.Fatalf("broken salvage not detected; violations:\n%s\ntranscript:\n%s",
			violationList(r), r.Transcript)
	}

	failing := func(c scenariogen.Spec) bool {
		rr, err := Run(c, Options{BreakSalvage: true})
		if err != nil {
			return false
		}
		for _, v := range rr.Violations {
			if v.Rule == "lost-without-attribution" {
				return true
			}
		}
		return false
	}
	small := scenariogen.Shrink(spec, failing)
	if !failing(small) {
		t.Fatal("shrunk spec no longer reproduces the bug")
	}
	if len(small.Ops) >= len(spec.Ops) && small.Ops[0].Bytes >= 65536 {
		t.Fatalf("shrinker made no progress:\n%s", scenariogen.Format(small))
	}
}

// TestRunGeneratedCorpus: a bounded seeded corpus end to end — the CI
// smoke in miniature. Every scenario must pass the full differential.
func TestRunGeneratedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	for seed := int64(0); seed < 12; seed++ {
		spec := scenariogen.Generate(seed)
		d, err := RunDiff(spec, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v\nspec:\n%s", seed, err, scenariogen.Format(spec))
		}
		if d.Failed() {
			t.Fatalf("seed %d failed:\n%s\nspec:\n%s", seed,
				strings.Join(d.Failures, "\n"), scenariogen.Format(spec))
		}
	}
}

// endToEndSpec covers every op kind checkEndToEnd compares, including a
// strided op with gaps between its blocks.
var endToEndSpec = scenariogen.Spec{
	Seed: 11, K: 4,
	Ops: []scenariogen.Op{
		{Kind: scenariogen.OpPIO, Src: 0, Dst: 2, Bytes: 64},
		{Kind: scenariogen.OpBarrier, Rounds: 1},
		{Kind: scenariogen.OpHostPut, Src: 1, Dst: 3, Bytes: 4093},
		{Kind: scenariogen.OpStride, Src: 2, Dst: 0, BlockLen: 100, Count: 5, Stride: 256},
		{Kind: scenariogen.OpDMA, Src: 0, SrcGPU: 0, Dst: 1, DstGPU: 1, Bytes: 8192},
	},
}

// referenceEndToEnd is the buffer-building compare checkEndToEnd
// replaced: it materializes each op's expected region and reports the
// first mismatching byte in the same words.
func referenceEndToEnd(r *Result) []Violation {
	var vs []Violation
	off := 0
	for i, o := range r.Spec.Ops {
		var want []byte
		switch o.Kind {
		case scenariogen.OpBarrier:
			continue
		case scenariogen.OpStride:
			span := o.Stride*(o.Count-1) + o.BlockLen
			src := fillBytes(r.Spec.Seed, i, span)
			want = make([]byte, span)
			for k := 0; k < o.Count; k++ {
				copy(want[k*o.Stride:k*o.Stride+o.BlockLen], src[k*o.Stride:k*o.Stride+o.BlockLen])
			}
		default:
			want = fillBytes(r.Spec.Seed, i, o.Bytes)
		}
		got := r.FinalMem[off : off+len(want)]
		off += len(want)
		for j := range want {
			if got[j] != want[j] {
				vs = append(vs, Violation{
					At: r.End, Rule: "end-to-end-payload", Where: fmt.Sprintf("op %d", i),
					Detail: fmt.Sprintf("destination byte %d is %#02x, want %#02x (first mismatch)",
						j, got[j], want[j])})
				break
			}
		}
	}
	return vs
}

// TestCheckEndToEndMatchesReference: on the landed memory of a clean run,
// and after corrupting one byte of it (every seventh byte, gap bytes
// included), checkEndToEnd reports exactly what the buffer-building
// compare did.
func TestCheckEndToEndMatchesReference(t *testing.T) {
	r := mustRun(t, endToEndSpec, Options{})
	assertClean(t, r)
	mem := append([]byte(nil), r.FinalMem...)
	for i := -1; i < len(mem); i += 7 {
		r.FinalMem = append(r.FinalMem[:0], mem...)
		if i >= 0 {
			r.FinalMem[i] ^= 0x5a
		}
		r.Violations = nil
		r.checkEndToEnd()
		want := referenceEndToEnd(r)
		if !slices.Equal(r.Violations, want) {
			t.Fatalf("byte %d flipped: got %v, want %v", i, r.Violations, want)
		}
		if i >= 0 && len(want) != 1 {
			t.Fatalf("byte %d flipped: reference reports %v", i, want)
		}
	}
}

// TestCheckEndToEndZeroAlloc: comparing a clean run's landed memory
// allocates nothing.
func TestCheckEndToEndZeroAlloc(t *testing.T) {
	r := mustRun(t, endToEndSpec, Options{})
	assertClean(t, r)
	if allocs := testing.AllocsPerRun(20, r.checkEndToEnd); allocs != 0 || len(r.Violations) != 0 {
		t.Fatalf("checkEndToEnd allocates %.1f per call (violations %v)", allocs, r.Violations)
	}
}
