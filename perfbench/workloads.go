package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"tca/internal/bench"
	"tca/internal/check"
	"tca/internal/scenariogen"
	"tca/internal/tcad"
	"tca/internal/tcanet"
)

// defaultSeed is the seed the digests in golden/ were taken with.
const defaultSeed = 1

// goldenUnits is how many leading units (fuzz specs, tcad engine jobs) the
// default-seed digests cover, so the digest does not depend on --seconds.
// It is a whole number of sampleSpecs blocks.
const goldenUnits = 48

// Run sizing: units per second of --seconds, calibrated on a 2-vCPU VM so
// that the timed phase at the parent commit lasts about --seconds. The
// amount of work is fixed by the flags, never by elapsed time, so a faster
// program does the same work in less wall time.
const (
	paperPassSeconds   = 5.3
	fuzzSpecsPerSecond = 16
	tcadReqsPerSecond  = 50
)

// Goldens. A deliberate change to simulated output re-baselines them.
var (
	//go:embed golden/bench_pr2.json
	goldenBaseline []byte
	//go:embed golden/paper_suite.sha256
	goldenPaperTables string
	//go:embed golden/fuzz_corpus.sha256
	goldenFuzz string
	//go:embed golden/tcad_storm.sha256
	goldenTcad string
)

func checkDigest(what string, h hash.Hash, golden string) []string {
	got := hex.EncodeToString(h.Sum(nil))
	if want := strings.TrimSpace(golden); got != want {
		return []string{fmt.Sprintf("%s digest %s, golden %s", what, got, want)}
	}
	return nil
}

// paperErrPct is the mean relative error, in percent, of the simulator
// against the four numbers the paper states and golden_test.go anchors:
// the Fig. 7 CPU-write peak (3.3 GB/s), the Fig. 7 GPU-read ceiling
// (0.83 GB/s), the Fig. 9 4-request share of the peak (≈70%) and the
// §IV-B1 loopback latency (782 ns). These were calibration targets, so
// the error is in-sample.
func paperErrPct() float64 {
	prm := tcanet.DefaultParams
	peak := bench.MeasureChain(prm, bench.DirWrite, bench.TargetCPU, false, 4096, 255).GBps()
	gpuRead := bench.MeasureChain(prm, bench.DirRead, bench.TargetGPU, false, 4096, 255).GBps()
	burst4 := bench.MeasureChain(prm, bench.DirWrite, bench.TargetCPU, false, 4096, 4).GBps()
	loopNS := bench.MeasureLoopbackPIO(prm).Nanoseconds()
	pairs := [][2]float64{{peak, 3.3}, {gpuRead, 0.83}, {burst4 / peak, 0.70}, {loopNS, 782}}
	sum := 0.0
	for _, p := range pairs {
		sum += math.Abs(p[0]-p[1]) / p[1]
	}
	return sum / float64(len(pairs)) * 100
}

// paperSuite runs every experiment of bench.All() in order with its shape
// check, on bare engines, passes times over: what a reader of the paper
// runs with `tcabench -exp all`. It has no inputs, so the seed is unused.
type paperSuite struct {
	passes   int
	problems []string
}

// setupPaperSuite checks the model's calibration before anything is
// timed: the headline baseline must equal the golden copy of
// BENCH_PR2.json, and the paper anchors give paper_err_pct.
func setupPaperSuite(_ int64, seconds int, tr *tracer, parent int) (workload, float64, error) {
	w := &paperSuite{passes: int(math.Max(1, math.Round(float64(seconds)/paperPassSeconds)))}
	var buf bytes.Buffer
	var err error
	tr.do("bench.CollectBaseline", parent, -1, func() { err = bench.CollectBaseline(tcanet.DefaultParams).WriteJSON(&buf) })
	if err != nil {
		return nil, 0, err
	}
	if !bytes.Equal(buf.Bytes(), goldenBaseline) {
		w.problems = append(w.problems, "bench.CollectBaseline differs from golden/bench_pr2.json")
	}
	var errPct float64
	tr.do("paper_anchors", parent, -1, func() { errPct = paperErrPct() })
	return w, errPct, nil
}

func (w *paperSuite) run(tr *tracer, root int) *phase {
	ph := &phase{problems: w.problems}
	prm := tcanet.DefaultParams
	exps := bench.All()
	start := time.Now()
	for p := 0; p < w.passes; p++ {
		passStart := time.Now()
		pass := tr.begin("pass", root, int64(p))
		h := sha256.New()
		for i, e := range exps {
			var err error
			tr.do("bench."+e.ID, pass, int64(i), func() {
				tab := e.Run(prm)
				if e.Check != nil {
					err = e.Check(tab)
				}
				if ferr := tab.Format(h); err == nil {
					err = ferr
				}
			})
			ph.attempted++
			if err != nil {
				ph.failed++
				fmt.Printf("paper-suite: pass %d: %s: %v\n", p, e.ID, err)
			}
		}
		tr.end(pass)
		ph.unitsMS = append(ph.unitsMS, float64(time.Since(passStart).Nanoseconds())/1e6)
		ph.problems = append(ph.problems, checkDigest(fmt.Sprintf("pass %d tables", p), h, goldenPaperTables)...)
	}
	ph.wallS = time.Since(start).Seconds()
	tr.count("bench.experiments", int64(ph.attempted))
	tr.count("bench.check_failures", int64(ph.failed))
	return ph
}

func (w *paperSuite) close() {}

// fuzzCorpus runs a seeded scenariogen stream through check.RunDiff with
// default options, in process and in sequence: the tcafuzz robustness
// loop. Set-up generates and canonicalises every spec.
type fuzzCorpus struct {
	seed  int64
	specs []scenariogen.Spec
}

func setupFuzzCorpus(seed int64, seconds int, tr *tracer, parent int) (workload, float64, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &fuzzCorpus{seed: seed}
	for i, spec := range sampleSpecs(rng, seconds*fuzzSpecsPerSecond, tr, parent) {
		var text string
		var canon scenariogen.Spec
		var err error
		tr.do("scenariogen.Format", parent, int64(i), func() { text = scenariogen.Format(spec) })
		tr.do("scenariogen.Parse", parent, int64(i), func() { canon, err = scenariogen.Parse(text) })
		if err != nil {
			return nil, 0, fmt.Errorf("spec %d does not round-trip: %w", i, err)
		}
		w.specs = append(w.specs, canon)
	}
	return w, 0, nil
}

// Specs are sampled in blocks: each block keeps sampleBlock specs out of
// sampleBlock*oversample generated candidates.
const (
	sampleBlock = 16
	oversample  = 8
)

// sampleSpecs returns n specs from the seeded scenariogen stream by
// systematic sampling. Per block it generates candidates, orders them by
// the properties that set most of a spec's host cost (node count, faults,
// op count: 87% of the RunDiff time variance on a 1200-spec sample) and
// keeps the middle candidate of every run of oversample. The kept specs
// follow the generator's distribution, but seeds differ much less in how
// costly their mix is than they would with a plain prefix of the stream.
// Kept specs stay in stream order, a prefix of the result does not depend
// on n, and selection never looks at a spec's verdict.
func sampleSpecs(rng *rand.Rand, n int, tr *tracer, parent int) []scenariogen.Spec {
	out := make([]scenariogen.Spec, 0, n)
	for len(out) < n {
		cands := make([]scenariogen.Spec, min(sampleBlock, n-len(out))*oversample)
		for i := range cands {
			tr.do("scenariogen.Generate", parent, int64(len(out)), func() { cands[i] = scenariogen.Generate(rng.Int63()) })
		}
		order := make([]int, len(cands))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ka, kb := costKey(cands[order[a]]), costKey(cands[order[b]])
			for i := range ka {
				if ka[i] != kb[i] {
					return ka[i] < kb[i]
				}
			}
			return false
		})
		var keep []int
		for i := oversample / 2; i < len(order); i += oversample {
			keep = append(keep, order[i])
		}
		sort.Ints(keep)
		for _, k := range keep {
			out = append(out, cands[k])
		}
	}
	return out
}

func costKey(s scenariogen.Spec) [3]int {
	faults := 0
	if s.Faults != "" {
		faults = 1
	}
	return [3]int{s.Nodes(), faults, len(s.Ops)}
}

func (w *fuzzCorpus) run(tr *tracer, root int) *phase {
	ph := &phase{layer: map[string]metric{}}
	h := sha256.New()
	runs := 0
	start := time.Now()
	for i, s := range w.specs {
		var d *check.DiffResult
		var err error
		t0 := time.Now()
		tr.do("check.RunDiff", root, int64(i), func() { d, err = check.RunDiff(s, check.Options{}) })
		ph.unitsMS = append(ph.unitsMS, float64(time.Since(t0).Nanoseconds())/1e6)
		ph.attempted++
		switch {
		case err != nil:
			ph.failed++
			fmt.Printf("fuzz-corpus: spec %d (seed %d): %v\n", i, s.Seed, err)
			continue
		case d.Failed():
			ph.failed++
			fmt.Printf("fuzz-corpus: spec %d (seed %d) failed the checker: %s\n", i, s.Seed, d.Failures[0])
		}
		runs += 2
		if d.Perfect != nil {
			runs++
		}
		if i < goldenUnits {
			h.Write(d.Faulty.Transcript)
			fmt.Fprintf(h, "%q\n", d.Failures)
		}
	}
	ph.wallS = time.Since(start).Seconds()
	tr.count("check.RunDiff", int64(ph.attempted))
	tr.count("check.RunDiff_failed", int64(ph.failed))
	tr.count("check.Run", int64(runs))
	ph.layer["check.runs_per_spec"] = metric{float64(runs) / float64(len(w.specs)), "count"}
	if w.seed == defaultSeed && len(w.specs) >= goldenUnits {
		ph.problems = append(ph.problems, checkDigest("default-seed transcript", h, goldenFuzz)...)
	}
	return ph
}

func (w *fuzzCorpus) close() {}

// tcad-storm load shape: one client goroutine keeps tcadWindow engine jobs
// outstanding against a tcad.Server with one worker (client plus worker
// fit in two CPUs). A share tcadHotShare of the submissions repeats one of
// tcadHot hot specs (a cache hit once the spec has run); the rest are fresh
// specs that run the engine.
const (
	tcadWindow   = 2
	tcadHot      = 16
	tcadHotShare = 0.7
	tcadPoll     = time.Millisecond
	// tcadLayoutBlock must divide tcadReqsPerSecond.
	tcadLayoutBlock = 50
)

type tcadStorm struct {
	seed int64
	srv  *tcad.Server
	reqs []string
}

func setupTcadStorm(seed int64, seconds int, tr *tracer, parent int) (workload, float64, error) {
	var srv *tcad.Server
	var err error
	tr.do("tcad.New", parent, -1, func() { srv, err = tcad.New(tcad.Config{Workers: 1}) })
	if err != nil {
		return nil, 0, err
	}
	// Every block of tcadLayoutBlock submissions holds exactly
	// tcadHotShare hot repeats at seeded positions; the rest are fresh
	// specs in stream order. Hot set, fresh specs and layout draw from
	// separate streams, so a prefix of the storm does not depend on its
	// length.
	hotRNG := rand.New(rand.NewSource(seed))
	freshRNG := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	layoutRNG := rand.New(rand.NewSource(seed ^ 0x2545F4914F6CDD1D))
	hot := sampleSpecs(hotRNG, tcadHot, tr, parent)
	n := seconds * tcadReqsPerSecond
	perBlock := tcadLayoutBlock - int(math.Round(tcadHotShare*tcadLayoutBlock))
	specs := sampleSpecs(freshRNG, n/tcadLayoutBlock*perBlock, tr, parent)
	w := &tcadStorm{seed: seed, srv: srv}
	for b := 0; b < n/tcadLayoutBlock; b++ {
		isFresh := make([]bool, tcadLayoutBlock)
		for _, i := range layoutRNG.Perm(tcadLayoutBlock)[:perBlock] {
			isFresh[i] = true
		}
		for i := range isFresh {
			s := hot[layoutRNG.Intn(tcadHot)]
			if isFresh[i] {
				s, specs = specs[0], specs[1:]
			}
			tr.do("scenariogen.Format", parent, int64(len(w.reqs)), func() { w.reqs = append(w.reqs, scenariogen.Format(s)) })
		}
	}
	return w, 0, nil
}

// waiter is a submission whose job had not finished when Submit returned.
type waiter struct {
	req    int
	id     uint64
	span   int
	engine bool // the submission created the job (a miss)
}

func (w *tcadStorm) run(tr *tracer, root int) *phase {
	ph := &phase{layer: map[string]metric{}}
	results := map[uint64][]byte{}
	var queue []waiter
	var hitSubmitUS, queueMS, runMS, resultKB []float64
	var maxID uint64
	hits, engines, polls := 0, 0, 0
	fail := func(i int, format string, args ...any) {
		ph.failed++
		ph.problems = append(ph.problems, fmt.Sprintf("request %d: ", i)+fmt.Sprintf(format, args...))
	}
	start := time.Now()
	next := 0
	for next < len(w.reqs) || len(queue) > 0 {
		for next < len(w.reqs) && engines < tcadWindow {
			i := next
			next++
			ph.attempted++
			span := tr.begin("request", root, int64(i))
			var resp tcad.SubmitResponse
			var err error
			t0 := time.Now()
			tr.do("tcad.Submit", span, int64(i), func() { resp, err = w.srv.Submit(tcad.Request{Spec: w.reqs[i]}) })
			took := time.Since(t0)
			switch {
			case err != nil:
				fail(i, "submit: %v", err)
				tr.end(span)
			case resp.ID > maxID:
				maxID = resp.ID
				engines++
				queue = append(queue, waiter{i, resp.ID, span, true})
			case resp.Cached && results[resp.ID] != nil:
				hits++
				hitSubmitUS = append(hitSubmitUS, float64(took.Nanoseconds())/1e3)
				var st tcad.Status
				tr.do("tcad.JobStatus", span, int64(i), func() { st, _ = w.srv.JobStatus(resp.ID) })
				if !bytes.Equal(st.Result, results[resp.ID]) {
					fail(i, "cache hit on job %d returned different bytes", resp.ID)
				}
				tr.end(span)
			default: // deduplicated onto a job still in flight
				hits++
				queue = append(queue, waiter{i, resp.ID, span, false})
			}
		}
		if len(queue) == 0 {
			continue
		}
		q := queue[0]
		var st tcad.Status
		var ok bool
		tr.do("tcad.JobStatus", q.span, int64(q.id), func() { st, ok = w.srv.JobStatus(q.id) })
		polls++
		switch {
		case !ok:
			fail(q.req, "job %d unknown", q.id)
		case st.State == string(tcad.StateSucceeded):
			if q.engine {
				results[q.id] = st.Result
				ph.unitsMS = append(ph.unitsMS, float64(st.QueueNS+st.RunNS)/1e6)
				queueMS = append(queueMS, float64(st.QueueNS)/1e6)
				runMS = append(runMS, float64(st.RunNS)/1e6)
				resultKB = append(resultKB, float64(len(st.Result))/1024)
				engines--
			} else if !bytes.Equal(st.Result, results[q.id]) {
				fail(q.req, "deduplicated submission of job %d returned different bytes", q.id)
			}
		case st.State == string(tcad.StateQueued) || st.State == string(tcad.StateRunning):
			time.Sleep(tcadPoll)
			continue
		default:
			fail(q.req, "job %d ended %s", q.id, st.State)
			if q.engine {
				engines--
			}
		}
		tr.end(q.span)
		queue = queue[1:]
	}
	ph.wallS = time.Since(start).Seconds()
	tr.count("tcad.Submit", int64(ph.attempted))
	tr.count("tcad.JobStatus", int64(polls))
	tr.count("tcad.hits", int64(hits))
	tr.count("tcad.engine_jobs", int64(len(results)))

	// Each distinct spec must have run the engine exactly once.
	jobs := w.srv.Jobs()
	distinct := map[string]bool{}
	for _, r := range w.reqs {
		distinct[r] = true
	}
	if len(jobs) != len(distinct) {
		ph.problems = append(ph.problems, fmt.Sprintf("%d jobs for %d distinct specs", len(jobs), len(distinct)))
	}
	h := sha256.New()
	for _, j := range jobs {
		if j.Attempts != 1 {
			ph.problems = append(ph.problems, fmt.Sprintf("job %d ran %d times", j.ID, j.Attempts))
		}
		if j.ID <= goldenUnits {
			h.Write(j.Result)
		}
	}
	if w.seed == defaultSeed && len(jobs) >= goldenUnits {
		ph.problems = append(ph.problems, checkDigest("default-seed result", h, goldenTcad)...)
	}
	ph.layer["tcad.hit_ratio"] = metric{float64(hits) / float64(len(w.reqs)), "ratio"}
	ph.layer["tcad.hit_submit_us_p50"] = metric{median(hitSubmitUS), "us"}
	ph.layer["tcad.queue_ms_p50"] = metric{median(queueMS), "ms"}
	ph.layer["tcad.run_ms_p50"] = metric{median(runMS), "ms"}
	ph.layer["tcad.result_kb_p50"] = metric{median(resultKB), "KiB"}
	return ph
}

func (w *tcadStorm) close() { w.srv.Close() }
