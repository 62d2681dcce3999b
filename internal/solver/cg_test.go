package solver

import (
	"math"
	"testing"

	"tca/internal/coll"
	"tca/internal/core"
	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

func newCG(t *testing.T, nodes, N int) (*sim.Engine, *CG) {
	t.Helper()
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, nodes, tcanet.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	sc.Instrument(obsv.NewSet(1024))
	comm, err := core.NewComm(sc)
	if err != nil {
		t.Fatal(err)
	}
	comm.SetMode(core.Pipelined)
	cc, err := coll.New(comm)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := New(comm, cc, N)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cg
}

// laplace1D applies A = tridiag(-1, 2, -1) to x.
func laplace1D(x []float64) []float64 {
	n := len(x)
	y := make([]float64, n)
	for i := range x {
		y[i] = 2 * x[i]
		if i > 0 {
			y[i] -= x[i-1]
		}
		if i < n-1 {
			y[i] -= x[i+1]
		}
	}
	return y
}

func TestCGSolvesKnownSolution(t *testing.T) {
	for _, cfg := range []struct{ nodes, N int }{{2, 32}, {4, 64}, {8, 64}} {
		eng, cg := newCG(t, cfg.nodes, cfg.N)
		// Pick x*, build b = A x*, solve, compare.
		xStar := make([]float64, cfg.N)
		for i := range xStar {
			xStar[i] = math.Sin(float64(i+1) * 0.37)
		}
		if err := cg.SetB(laplace1D(xStar)); err != nil {
			t.Fatal(err)
		}
		var st Stats
		doneFired := false
		cg.Solve(1e-10, 10*cfg.N, func(s Stats) { st = s; doneFired = true })
		eng.Run()
		if !doneFired {
			t.Fatalf("nodes=%d: solve never completed", cfg.nodes)
		}
		if st.Residual > 1e-9 {
			t.Fatalf("nodes=%d: residual %g after %d iterations", cfg.nodes, st.Residual, st.Iterations)
		}
		if st.Elapsed <= 0 {
			t.Fatalf("nodes=%d: no simulated time elapsed (%v)", cfg.nodes, st.Elapsed)
		}
		got := cg.X()
		for i := range xStar {
			if math.Abs(got[i]-xStar[i]) > 1e-7 {
				t.Fatalf("nodes=%d: x[%d] = %g, want %g", cfg.nodes, i, got[i], xStar[i])
			}
		}
		// CG on an N×N SPD system converges in at most N iterations.
		if st.Iterations > cfg.N {
			t.Fatalf("nodes=%d: %d iterations exceed dimension %d", cfg.nodes, st.Iterations, cfg.N)
		}
		t.Logf("nodes=%d N=%d: %d iterations, residual %.2e, %v of simulated communication time",
			cfg.nodes, cfg.N, st.Iterations, st.Residual, st.Elapsed)
	}
}

func TestCGMaxIterStops(t *testing.T) {
	eng, cg := newCG(t, 2, 64)
	b := make([]float64, 64)
	b[0] = 1
	if err := cg.SetB(b); err != nil {
		t.Fatal(err)
	}
	var st Stats
	cg.Solve(1e-30, 3, func(s Stats) { st = s })
	eng.Run()
	if st.Iterations != 3 {
		t.Fatalf("stopped after %d iterations, want maxIter=3", st.Iterations)
	}
	if st.Residual <= 0 {
		t.Fatal("residual not reported")
	}
}

func TestCGValidation(t *testing.T) {
	eng := sim.NewEngine()
	sc, _ := tcanet.BuildRing(eng, 4, tcanet.DefaultParams)
	comm, _ := core.NewComm(sc)
	cc, _ := coll.New(comm)
	if _, err := New(comm, cc, 63); err == nil {
		t.Fatal("non-divisible N accepted")
	}
	if _, err := New(comm, cc, 4); err == nil {
		t.Fatal("one row per node accepted")
	}
	cg, err := New(comm, cc, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.SetB(make([]float64, 10)); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

func TestCGCommunicationDominatedBySmallMessages(t *testing.T) {
	// The solver's traffic profile is exactly the paper's motivation:
	// tiny halo cells and scalar reductions. Verify PIO (flag) stores and
	// small puts dominated the wire, i.e. chips forwarded many small
	// packets rather than a few bulk streams.
	eng, cg := newCG(t, 4, 64)
	xStar := make([]float64, 64)
	for i := range xStar {
		xStar[i] = float64(i%7) - 3
	}
	if err := cg.SetB(laplace1D(xStar)); err != nil {
		t.Fatal(err)
	}
	cg.Solve(1e-10, 640, func(Stats) {})
	eng.Run()
	sc := cg.comm.SubCluster()
	dmac := sc.Chip(0).DevName() + "/dmac"
	chains, _ := sc.Observability().Registry().CounterValue("dma_chains", dmac)
	tlps, _ := sc.Observability().Registry().CounterValue("dma_write_tlps", dmac)
	if chains == 0 {
		t.Fatal("no DMA chains ran")
	}
	if tlps/chains > 4 {
		t.Fatalf("average %d TLPs per chain — expected small-message traffic", tlps/chains)
	}
}
