package bench

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tca/internal/tcanet"
	"tca/internal/units"
)

func TestMeasureChainBasics(t *testing.T) {
	prm := tcanet.DefaultParams
	bw := MeasureChain(prm, DirWrite, TargetCPU, false, 4096, 255)
	t.Logf("CPU write 255×4KiB = %v", bw)
	if bw.GBps() < 3.1 || bw.GBps() > 3.66 {
		t.Fatalf("chained CPU write = %v, want the paper's ~3.3 GB/s (93%% of 3.66)", bw)
	}
}

func TestMeasureChainGPUReadCeiling(t *testing.T) {
	prm := tcanet.DefaultParams
	bw := MeasureChain(prm, DirRead, TargetGPU, false, 4096, 64)
	t.Logf("GPU read 64×4KiB = %v", bw)
	if bw.MBps() < 700 || bw.MBps() > 950 {
		t.Fatalf("GPU read = %v, want the paper's ~830 MB/s ceiling", bw)
	}
}

func TestMeasureChainSingleDMASlow(t *testing.T) {
	prm := tcanet.DefaultParams
	single := MeasureChain(prm, DirWrite, TargetCPU, false, 4096, 1)
	t.Logf("CPU write 1×4KiB = %v", single)
	if single.GBps() > 1.8 {
		t.Fatalf("single 4KiB DMA = %v — activation overhead missing", single)
	}
}

func TestFig9SeventyPercentPoint(t *testing.T) {
	prm := tcanet.DefaultParams
	peak := MeasureChain(prm, DirWrite, TargetCPU, false, 4096, 255)
	four := MeasureChain(prm, DirWrite, TargetCPU, false, 4096, 4)
	frac := float64(four) / float64(peak)
	t.Logf("4-request fraction = %.1f%% (paper: ≈70%%)", 100*frac)
	if frac < 0.60 || frac > 0.80 {
		t.Fatalf("4-request fraction %.0f%% outside [60, 80]", 100*frac)
	}
}

func TestFig12Shape(t *testing.T) {
	prm := tcanet.DefaultParams
	smallLocal := MeasureChain(prm, DirWrite, TargetCPU, false, 64, 255)
	smallRemote := MeasureChain(prm, DirWrite, TargetCPU, true, 64, 255)
	bigLocal := MeasureChain(prm, DirWrite, TargetCPU, false, 4096, 255)
	bigRemote := MeasureChain(prm, DirWrite, TargetCPU, true, 4096, 255)
	gpuLocal := MeasureChain(prm, DirWrite, TargetGPU, false, 256, 255)
	gpuRemote := MeasureChain(prm, DirWrite, TargetGPU, true, 256, 255)
	t.Logf("CPU 64B local=%v remote=%v; 4KiB local=%v remote=%v; GPU 256B local=%v remote=%v",
		smallLocal, smallRemote, bigLocal, bigRemote, gpuLocal, gpuRemote)
	if smallRemote >= smallLocal {
		t.Fatal("remote CPU should dip below local at small sizes")
	}
	if float64(bigRemote) < 0.95*float64(bigLocal) {
		t.Fatal("remote CPU should converge to local at 4KiB")
	}
	if float64(gpuRemote) < 0.97*float64(gpuLocal) {
		t.Fatal("remote GPU should track local (deep queue)")
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := &Table{ID: "X", Title: "test", XLabel: "size", Columns: []string{"a", "b"}}
	tab.AddRow("64B", "1.0", "2.0")
	tab.AddRow("4KiB", "3.300", "0.830")
	tab.AddNote("a note with %d", 42)
	var buf bytes.Buffer
	if err := tab.Format(&buf); err != nil {
		t.Fatalf("Format: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"== X: test ==", "64B", "3.300", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	if !strings.Contains(buf.String(), "size,a,b") || !strings.Contains(buf.String(), "4KiB,3.300,0.830") {
		t.Fatalf("CSV output wrong:\n%s", buf.String())
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", XLabel: "k", Columns: []string{`va"l,ue`}}
	tab.AddRow("a,b", `say "hi"`)
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"va""l,ue"`) || !strings.Contains(out, `"a,b","say ""hi"""`) {
		t.Fatalf("CSV escaping wrong:\n%s", out)
	}
}

// brokenWriter fails after n bytes, standing in for a full disk or a
// closed pipe mid-render.
type brokenWriter struct{ n int }

func (w *brokenWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink broke")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), errors.New("sink broke")
}

func TestTableRenderPropagatesWriteErrors(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", XLabel: "k", Columns: []string{"a"}}
	tab.AddRow("r1", "1")
	tab.AddNote("n")
	if err := tab.Format(&brokenWriter{n: 10}); err == nil {
		t.Fatal("Format swallowed the write error")
	}
	if err := tab.CSV(&brokenWriter{n: 10}); err == nil {
		t.Fatal("CSV swallowed the write error")
	}
}

func TestTableValueLookup(t *testing.T) {
	tab := &Table{ID: "X", XLabel: "size", Columns: []string{"bw", "gain"}}
	tab.AddRow("4KiB", "3.300", "1.5x")
	v, err := tab.Value("4KiB", "bw")
	if err != nil || v != 3.3 {
		t.Fatalf("Value = %v, %v", v, err)
	}
	g, err := tab.Value("4KiB", "gain")
	if err != nil || g != 1.5 {
		t.Fatalf("gain Value = %v, %v (x-suffix should parse)", g, err)
	}
	if _, err := tab.Value("4KiB", "nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := tab.Value("8KiB", "bw"); err == nil {
		t.Fatal("unknown row accepted")
	}
}

func TestSpecTables(t *testing.T) {
	one := TableI()
	if len(one.Rows) != 13 {
		t.Fatalf("Table I has %d rows", len(one.Rows))
	}
	two := TableII()
	if len(two.Rows) != 11 {
		t.Fatalf("Table II has %d rows", len(two.Rows))
	}
	peak := TheoreticalPeak()
	var buf bytes.Buffer
	if err := peak.Format(&buf); err != nil {
		t.Fatalf("Format: %v", err)
	}
	if !strings.Contains(buf.String(), "3.66 GB/s") {
		t.Fatalf("theoretical peak table missing 3.66 GB/s:\n%s", buf.String())
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("fig7"); !ok {
		t.Fatal("Find is not case-insensitive")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find invented an experiment")
	}
}

func TestAblationImmediateFaster(t *testing.T) {
	tab := AblationImmediate(tcanet.DefaultParams)
	for _, r := range tab.Rows {
		tbl := tab.mustVal(r.X, "table activation")
		imm := tab.mustVal(r.X, "immediate")
		if imm >= tbl {
			t.Fatalf("immediate (%v µs) not faster than table path (%v µs) at %s", imm, tbl, r.X)
		}
	}
}

func TestAblationPayloadMonotonic(t *testing.T) {
	tab := AblationPayload(tcanet.DefaultParams)
	prev := 0.0
	for _, r := range tab.Rows {
		th := tab.mustVal(r.X, "theoretical")
		ms := tab.mustVal(r.X, "measured (255×4KiB)")
		if th <= prev {
			t.Fatalf("theoretical peak not increasing with payload at %s", r.X)
		}
		if ms > th {
			t.Fatalf("measured %.3f exceeds theoretical %.3f at %s", ms, th, r.X)
		}
		prev = th
	}
}

func TestAblationNTBOrdering(t *testing.T) {
	tab := AblationNTB(tcanet.DefaultParams)
	p2 := tab.mustVal("PEACH2 (compare-only routing)", "latency")
	nt := tab.mustVal("NTB (table translation)", "latency")
	t.Logf("PEACH2 %v µs vs NTB %v µs", p2, nt)
	if nt <= p2*0.9 {
		t.Fatalf("NTB (%v) unexpectedly much faster than PEACH2 (%v)", nt, p2)
	}
}

func TestBaselineSpotCheck(t *testing.T) {
	prm := tcanet.DefaultParams
	two := MeasureTCAGPU(prm, 0, 8)
	pipe := MeasureTCAGPU(prm, 1, 8)
	conv := MeasureConventionalGPU(prm, 8)
	t.Logf("8B GPU-GPU: two-phase %v, pipelined %v, conventional %v", two, pipe, conv)
	if conv < 3*pipe {
		t.Fatalf("conventional %v not ≥3× TCA %v at 8B — the motivation gap is gone", conv, pipe)
	}
	if conv < 12*units.Microsecond {
		t.Fatalf("conventional 8B %v implausibly fast (two cudaMemcpys alone are ~14µs)", conv)
	}
}

// TestRunParallelMatchesSerial verifies that concurrent experiment
// execution produces byte-identical tables to serial runs — the engines
// share no state.
func TestRunParallelMatchesSerial(t *testing.T) {
	prm := tcanet.DefaultParams
	exps := []Experiment{}
	for _, id := range []string{"Fig9", "AblationImmediate", "TheoreticalPeak", "AblationNTB"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		exps = append(exps, e)
	}
	par := RunParallel(prm, exps)
	for i, e := range exps {
		serial := e.Run(prm)
		if len(par[i].Rows) != len(serial.Rows) {
			t.Fatalf("%s: row count differs", e.ID)
		}
		for r := range serial.Rows {
			if par[i].Rows[r].X != serial.Rows[r].X {
				t.Fatalf("%s row %d key differs", e.ID, r)
			}
			for v := range serial.Rows[r].Vals {
				if par[i].Rows[r].Vals[v] != serial.Rows[r].Vals[v] {
					t.Fatalf("%s row %d col %d: parallel %q vs serial %q",
						e.ID, r, v, par[i].Rows[r].Vals[v], serial.Rows[r].Vals[v])
				}
			}
		}
	}
}

// TestSweepsProduceMonotonicShapes sanity-checks every registered sweep.
func TestSweepsProduceMonotonicShapes(t *testing.T) {
	prm := tcanet.DefaultParams
	if len(SweepNames()) != 4 {
		t.Fatalf("sweep registry has %d entries", len(SweepNames()))
	}

	// Issue interval: peak is non-increasing as the interval grows.
	issue := SweepIssue(prm)
	prev := 1e9
	for _, r := range issue.Rows {
		v := issue.mustVal(r.X, "peak (GB/s)")
		if v > prev+1e-9 {
			t.Fatalf("issue sweep not non-increasing at %s", r.X)
		}
		prev = v
	}

	// Cable: PIO latency strictly increases with cable length; bandwidth
	// varies by <2%.
	cable := SweepCable(prm)
	prevLat := -1.0
	var bwMin, bwMax float64 = 1e9, 0
	for _, r := range cable.Rows {
		lat := cable.mustVal(r.X, "PIO loopback (µs)")
		bw := cable.mustVal(r.X, "remote DMA BW (GB/s)")
		if lat <= prevLat {
			t.Fatalf("cable sweep latency not increasing at %s", r.X)
		}
		prevLat = lat
		if bw < bwMin {
			bwMin = bw
		}
		if bw > bwMax {
			bwMax = bw
		}
	}
	if (bwMax-bwMin)/bwMax > 0.02 {
		t.Fatalf("cable sweep bandwidth varied %.1f%% — pipelining should hide flight time", 100*(bwMax-bwMin)/bwMax)
	}

	// IRQ: single-DMA bandwidth strictly falls with IRQ latency; burst is
	// insensitive (<2%).
	irq := SweepIRQ(prm)
	prevOne := 1e9
	for _, r := range irq.Rows {
		one := irq.mustVal(r.X, "single 4KiB (GB/s)")
		if one >= prevOne {
			t.Fatalf("irq sweep single-DMA not decreasing at %s", r.X)
		}
		prevOne = one
	}

	// Credits: non-decreasing with more buffering.
	cr := SweepCredits(prm)
	prevBW := -1.0
	for _, r := range cr.Rows {
		v := cr.mustVal(r.X, "remote DMA BW (GB/s)")
		if v < prevBW-1e-9 {
			t.Fatalf("credit sweep decreased at %s", r.X)
		}
		prevBW = v
	}
}
