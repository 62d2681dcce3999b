package tcad

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tca/internal/bench"
	"tca/internal/check"
	"tca/internal/obsv"
	"tca/internal/scenariogen"
	"tca/internal/sim"
)

// spec returns a small valid canonical spec, varied by seed so tests can
// mint distinct cache keys at will.
func spec(t *testing.T, seed int64) string {
	t.Helper()
	return scenariogen.Format(scenariogen.Generate(seed))
}

// fakeRunner scripts job outcomes per canonical spec text. The zero
// behavior is instant success with a transcript derived from the spec,
// which keeps results deterministic without running the simulator.
type fakeRunner struct {
	mu sync.Mutex
	// panicSpecs / transientFailures / budgetSpecs key on the canonical
	// spec; transientFailures counts down (fail while > 0).
	panicSpecs        map[string]bool
	transientFailures map[string]int
	budgetSpecs       map[string]bool
	// delay stalls every run, for drain/backpressure tests.
	delay time.Duration
	// transcriptSalt perturbs transcripts, for cache-verify tests.
	transcriptSalt string
	runs           int
}

func (f *fakeRunner) runCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs
}

func (f *fakeRunner) RunScenario(s scenariogen.Spec, opt check.Options) (*check.DiffResult, error) {
	canon := scenariogen.Format(s)
	f.mu.Lock()
	f.runs++
	delay := f.delay
	doPanic := f.panicSpecs[canon]
	budget := f.budgetSpecs[canon]
	transient := false
	if n := f.transientFailures[canon]; n > 0 {
		f.transientFailures[canon] = n - 1
		transient = true
	}
	salt := f.transcriptSalt
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if doPanic {
		panic("fakeRunner: deliberate panic for " + canon)
	}
	if budget {
		return nil, &sim.BudgetError{Reason: sim.StopMaxEvents, Events: opt.MaxEvents}
	}
	if transient {
		return nil, &TransientError{Err: errors.New("scripted transient failure")}
	}
	transcript := []byte("transcript(" + canon + ")" + salt)
	return &check.DiffResult{
		Faulty:        &check.Result{Spec: s, Transcript: transcript, FullyRecovered: true, OpsDone: len(s.Ops)},
		DeterminismOK: true,
	}, nil
}

func (f *fakeRunner) TraceScenario(s scenariogen.Spec, opt check.Options) (*check.Result, error) {
	opt.KeepObs = true
	return check.Run(s, opt)
}

func (f *fakeRunner) RunSweep(name string) (*bench.Table, error) {
	return &bench.Table{ID: name, Title: "fake " + name}, nil
}

func newFake() *fakeRunner {
	return &fakeRunner{
		panicSpecs:        map[string]bool{},
		transientFailures: map[string]int{},
		budgetSpecs:       map[string]bool{},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *fakeRunner) {
	t.Helper()
	fake := newFake()
	if cfg.Runner == nil {
		cfg.Runner = fake
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s, fake
}

// waitState polls until the job reaches a terminal-enough state.
func waitState(t *testing.T, s *Server, id uint64, want ...State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.JobStatus(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		for _, w := range want {
			if st.State == string(w) {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.JobStatus(id)
	t.Fatalf("job %d stuck in %q, want one of %v", id, st.State, want)
	return Status{}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []Request{
		{},                                   // neither
		{Spec: spec(t, 1), Sweep: "cable"},   // both
		{Spec: "not a spec"},                 // unparseable
		{Sweep: "no-such-sweep"},             // unknown sweep
		{Spec: spec(t, 1), Priority: "high"}, // bad lane
	}
	for i, req := range cases {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d: got %v, want ErrBadRequest", i, err)
		}
	}
}

func TestScenarioJobSucceeds(t *testing.T) {
	s, fake := newTestServer(t, Config{})
	resp, err := s.Submit(Request{Spec: spec(t, 7)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, resp.ID, StateSucceeded)
	if !strings.Contains(string(st.Result), `"version": "tcad-result/1"`) &&
		!strings.Contains(string(st.Result), `"version":"tcad-result/1"`) {
		t.Fatalf("result payload missing version: %s", st.Result)
	}
	if fake.runCount() != 1 {
		t.Fatalf("runs = %d, want 1", fake.runCount())
	}
	if st.RunNS <= 0 || st.QueueNS < 0 {
		t.Fatalf("latency stamps not recorded: queue=%d run=%d", st.QueueNS, st.RunNS)
	}
}

func TestDuplicateSubmissionsSingleflightByteIdentical(t *testing.T) {
	s, fake := newTestServer(t, Config{})
	text := spec(t, 11)
	first, err := s.Submit(Request{Spec: text})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, first.ID, StateSucceeded)

	// Every duplicate — including a re-parse of the same scenario with
	// different surface syntax (Format is canonical, so Format(Parse(x))
	// collapses them) — lands on the same job and the same bytes.
	for i := 0; i < 5; i++ {
		dup, err := s.Submit(Request{Spec: text})
		if err != nil {
			t.Fatalf("dup Submit: %v", err)
		}
		if dup.ID != first.ID || !dup.Cached {
			t.Fatalf("dup %d: got id=%d cached=%v, want id=%d cached=true", i, dup.ID, dup.Cached, first.ID)
		}
		st2, _ := s.JobStatus(dup.ID)
		if !bytes.Equal(st2.Result, st.Result) {
			t.Fatalf("dup %d: result bytes diverged", i)
		}
	}
	if fake.runCount() != 1 {
		t.Fatalf("runs = %d, want 1 (singleflight)", fake.runCount())
	}
}

func TestConcurrentDuplicatesRunOnce(t *testing.T) {
	s, fake := newTestServer(t, Config{Workers: 4})
	fake.delay = 20 * time.Millisecond
	text := spec(t, 13)
	var wg sync.WaitGroup
	ids := make([]uint64, 16)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(Request{Spec: text})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids[i] = resp.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("ids diverged: %v", ids)
		}
	}
	waitState(t, s, ids[0], StateSucceeded)
	if fake.runCount() != 1 {
		t.Fatalf("runs = %d, want 1", fake.runCount())
	}
}

func TestPanicQuarantineWithReproducerDaemonSurvives(t *testing.T) {
	s, fake := newTestServer(t, Config{MaxRetries: 1})
	// The fake panics only on this exact canonical spec; no shrink
	// candidate reproduces, so Shrink falls back to the original — the
	// reproducer is then the offending spec itself, still valid.
	text := spec(t, 17)
	fake.mu.Lock()
	fake.panicSpecs[text] = true
	fake.mu.Unlock()

	resp, err := s.Submit(Request{Spec: text})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, resp.ID, StateQuarantined)
	if st.Failure == nil || st.Failure.Class != FailPanic {
		t.Fatalf("failure = %+v, want class panic", st.Failure)
	}
	if !strings.Contains(st.Failure.Message, "deliberate panic") {
		t.Fatalf("message %q lacks panic value", st.Failure.Message)
	}
	if !strings.Contains(st.Failure.Stack, "tcad") {
		t.Fatalf("stack not captured")
	}
	if st.Failure.Attempts != 2 { // first run + 1 retry
		t.Fatalf("attempts = %d, want 2", st.Failure.Attempts)
	}
	if st.Failure.Reproducer == "" {
		t.Fatalf("no reproducer recorded")
	}
	if _, err := scenariogen.Parse(st.Failure.Reproducer); err != nil {
		t.Fatalf("reproducer not a valid spec: %v", err)
	}

	// The daemon keeps serving after a poison job.
	ok, err := s.Submit(Request{Spec: spec(t, 18)})
	if err != nil {
		t.Fatalf("post-quarantine Submit: %v", err)
	}
	waitState(t, s, ok.ID, StateSucceeded)
}

func TestBudgetExceededIsTypedTerminalFailure(t *testing.T) {
	s, fake := newTestServer(t, Config{})
	text := spec(t, 19)
	fake.mu.Lock()
	fake.budgetSpecs[text] = true
	fake.mu.Unlock()

	resp, err := s.Submit(Request{Spec: text, MaxEvents: 123})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, resp.ID, StateFailed)
	if st.Failure == nil || st.Failure.Class != FailBudget {
		t.Fatalf("failure = %+v, want class budget", st.Failure)
	}
	if st.Failure.Attempts != 1 {
		t.Fatalf("budget failures must not retry; attempts = %d", st.Failure.Attempts)
	}
	if fake.runCount() != 1 {
		t.Fatalf("runs = %d, want 1", fake.runCount())
	}
}

func TestTransientFailureRetriesThenSucceeds(t *testing.T) {
	s, fake := newTestServer(t, Config{MaxRetries: 2})
	text := spec(t, 23)
	fake.mu.Lock()
	fake.transientFailures[text] = 2
	fake.mu.Unlock()

	resp, err := s.Submit(Request{Spec: text})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, resp.ID, StateSucceeded)
	if st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two transient failures, then success)", st.Attempts)
	}
}

func TestTransientFailureExhaustsRetries(t *testing.T) {
	s, fake := newTestServer(t, Config{MaxRetries: 1})
	text := spec(t, 29)
	fake.mu.Lock()
	fake.transientFailures[text] = 100
	fake.mu.Unlock()

	resp, err := s.Submit(Request{Spec: text})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, resp.ID, StateFailed)
	if st.Failure == nil || st.Failure.Class != FailTransient {
		t.Fatalf("failure = %+v, want class transient", st.Failure)
	}
	if st.Failure.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", st.Failure.Attempts)
	}
	// A terminal failure releases the cache slot: resubmission runs again
	// rather than being pinned to the failed job.
	fake.mu.Lock()
	fake.transientFailures[text] = 0
	fake.mu.Unlock()
	resp2, err := s.Submit(Request{Spec: text})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if resp2.ID == resp.ID {
		t.Fatalf("resubmission reused failed job %d", resp.ID)
	}
	waitState(t, s, resp2.ID, StateSucceeded)
}

func TestBackpressureSheds(t *testing.T) {
	s, fake := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	fake.delay = 50 * time.Millisecond
	shed := 0
	for i := 0; i < 20; i++ {
		_, err := s.Submit(Request{Spec: spec(t, 100+int64(i))})
		if errors.Is(err, ErrQueueFull) {
			shed++
		} else if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if shed == 0 {
		t.Fatalf("queue cap 2 with slow worker shed nothing across 20 distinct submissions")
	}
	snap := s.cfg.Registry.Snapshot(0)
	if v, _ := snap.Counter("tcad_jobs_shed", "tcad", labelReason("queue-full")); v != uint64(shed) {
		t.Fatalf("shed counter = %d, want %d", v, shed)
	}
}

func TestLanePriority(t *testing.T) {
	met := newMetrics(nil)
	q := newQueue(16, met)
	mk := func(id uint64, pri Priority) *Job { return &Job{ID: id, Priority: pri} }
	if err := q.push(mk(1, PrioritySweep)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mk(2, PrioritySweep)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mk(3, PriorityInteractive)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mk(4, PriorityInteractive)); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for i := 0; i < 4; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue closed early", i)
		}
		got = append(got, j.ID)
	}
	want := []uint64{3, 4, 1, 2} // interactive lane first, FIFO within lanes
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestQueueCapPerLane(t *testing.T) {
	q := newQueue(1, newMetrics(nil))
	if err := q.push(&Job{ID: 1, Priority: PrioritySweep}); err != nil {
		t.Fatal(err)
	}
	if err := q.push(&Job{ID: 2, Priority: PrioritySweep}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second sweep push: %v, want ErrQueueFull", err)
	}
	// The interactive lane has its own budget.
	if err := q.push(&Job{ID: 3, Priority: PriorityInteractive}); err != nil {
		t.Fatalf("interactive push after sweep lane full: %v", err)
	}
	// pushUnbounded ignores the cap.
	q.pushUnbounded(&Job{ID: 4, Priority: PrioritySweep})
	if sweep, inter := q.lanes[PrioritySweep].Len(), q.lanes[PriorityInteractive].Len(); sweep != 2 || inter != 1 {
		t.Fatalf("lane depths = sweep %d, interactive %d; want 2, 1", sweep, inter)
	}
}

func TestQueueCloseWakesPop(t *testing.T) {
	q := newQueue(4, newMetrics(nil))
	done := make(chan bool)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatalf("pop returned a job from a closed empty queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("pop did not wake on close")
	}
}

func TestSweepJob(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	resp, err := s.Submit(Request{Sweep: "cable", Priority: "sweep"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, resp.ID, StateSucceeded)
	if !strings.Contains(string(st.Result), sweepResultVersion) {
		t.Fatalf("sweep result missing version: %s", st.Result)
	}
}

func TestCacheVerifyPassAndInjectedMismatch(t *testing.T) {
	s, fake := newTestServer(t, Config{VerifyEvery: 1})
	text := spec(t, 31)
	resp, err := s.Submit(Request{Spec: text})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, resp.ID, StateSucceeded)

	// Clean hit: verify re-runs and matches.
	if _, err := s.Submit(Request{Spec: text}); err != nil {
		t.Fatalf("dup Submit: %v", err)
	}
	waitCounter(t, s, "tcad_cache_verify_runs", 1)
	if v := counter(s, "tcad_cache_verify_failures"); v != 0 {
		t.Fatalf("verify failures = %d after clean hit", v)
	}

	// Poison the runner so the next verify re-run produces different
	// transcript bytes: the integrity mode must catch it.
	fake.mu.Lock()
	fake.transcriptSalt = "!corrupted"
	fake.mu.Unlock()
	if _, err := s.Submit(Request{Spec: text}); err != nil {
		t.Fatalf("dup Submit: %v", err)
	}
	waitCounter(t, s, "tcad_cache_verify_failures", 1)
	s.mu.Lock()
	entry := s.cache[scenarioKey(text)]
	poisoned := entry != nil && entry.verifyFailed
	s.mu.Unlock()
	if !poisoned {
		t.Fatalf("cache entry not marked verifyFailed after mismatch")
	}
}

func counter(s *Server, name string) uint64 {
	v, _ := s.cfg.Registry.Snapshot(0).Counter(name, "tcad")
	return v
}

func waitCounter(t *testing.T, s *Server, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if counter(s, name) >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("counter %s = %d, want >= %d", name, counter(s, name), want)
}

func TestDrainCheckpointRestartCompletesRemainder(t *testing.T) {
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "tcad.checkpoint")

	fake := newFake()
	fake.delay = 10 * time.Millisecond
	s, err := New(Config{
		Workers:        1,
		QueueCap:       128,
		CheckpointPath: cpPath,
		DrainGrace:     5 * time.Second,
		Runner:         fake,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const burst = 50
	ids := make([]uint64, 0, burst)
	for i := 0; i < burst; i++ {
		resp, err := s.Submit(Request{Spec: spec(t, 1000+int64(i))})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, resp.ID)
	}
	// Drain mid-burst: the single slow worker cannot have finished 50.
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	var doneFirst, pendingFirst int
	for _, st := range s.Jobs() {
		switch State(st.State) {
		case StateSucceeded:
			doneFirst++
		case StateQueued, StateRetryWait:
			pendingFirst++
		}
	}
	if pendingFirst == 0 {
		t.Fatalf("drain finished all %d jobs; burst too small to exercise checkpointing", burst)
	}
	if _, err := os.Stat(cpPath); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Restart: the new daemon restores the remainder and completes it.
	fake2 := newFake()
	s2, err := New(Config{
		Workers:        2,
		QueueCap:       128,
		CheckpointPath: cpPath,
		Runner:         fake2,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	t.Cleanup(s2.Close)
	if _, err := os.Stat(cpPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("restored checkpoint not removed: %v", err)
	}
	if got := len(s2.Jobs()); got != pendingFirst {
		t.Fatalf("restored %d jobs, want %d", got, pendingFirst)
	}
	for _, st := range s2.Jobs() {
		waitState(t, s2, st.ID, StateSucceeded)
	}
	// Job IDs survive the restart, so clients polling /jobs/{id} across
	// the restart see their job complete under the same ID.
	restored := map[uint64]bool{}
	for _, st := range s2.Jobs() {
		restored[st.ID] = true
	}
	for _, id := range ids {
		st, ok := s.JobStatus(id)
		if !ok {
			t.Fatalf("job %d missing from old server", id)
		}
		if st.State != string(StateSucceeded) && !restored[id] {
			t.Fatalf("job %d neither finished before drain nor restored after", id)
		}
	}

	// New submissions on the restarted daemon get fresh IDs.
	resp, err := s2.Submit(Request{Spec: spec(t, 9999)})
	if err != nil {
		t.Fatalf("post-restart Submit: %v", err)
	}
	for _, id := range ids {
		if resp.ID == id {
			t.Fatalf("post-restart job reused ID %d", id)
		}
	}
}

func TestDrainRejectsSubmissions(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := s.Submit(Request{Spec: spec(t, 41)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Fatalf("Draining() false after Drain")
	}
	if err := s.Drain(); err == nil {
		t.Fatalf("second Drain should error")
	}
}

// TestBurstStormRates is the EXPERIMENTS.md measurement: a bursty storm
// of submissions over a small hot set of distinct specs, against a small
// queue. It reports the cache-hit rate and shed rate. Values are printed
// via t.Logf; run with -v to read them.
func TestBurstStormRates(t *testing.T) {
	s, fake := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	fake.delay = 2 * time.Millisecond

	const (
		clients    = 8
		perClient  = 50
		hotSpecs   = 16
		totalTries = clients * perClient
	)
	specs := make([]string, hotSpecs)
	for i := range specs {
		specs[i] = spec(t, 2000+int64(i))
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, err := s.Submit(Request{Spec: specs[(c*7+i)%hotSpecs]})
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	hits := counter(s, "tcad_cache_hits")
	misses := counter(s, "tcad_cache_misses")
	shedSnap := s.cfg.Registry.Snapshot(0)
	shed, _ := shedSnap.Counter("tcad_jobs_shed", "tcad", labelReason("queue-full"))
	if hits+misses+0 == 0 {
		t.Fatalf("no submissions accounted")
	}
	hitRate := float64(hits) / float64(hits+misses)
	shedRate := float64(shed) / float64(totalTries)
	t.Logf("burst storm: %d submissions over %d hot specs: cache hits %d, misses %d (hit rate %.1f%%), shed %d (shed rate %.1f%%)",
		totalTries, hotSpecs, hits, misses, 100*hitRate, shed, 100*shedRate)
	if hits == 0 {
		t.Fatalf("storm over %d hot specs produced zero cache hits", hotSpecs)
	}
	// A shed submission never creates a cache entry, so a later submit of
	// the same spec can legitimately run it again — runs are bounded by
	// the hot-set size plus the shed count, not by total submissions.
	if max := hotSpecs + int(shed); fake.runCount() > max {
		t.Fatalf("runs = %d, want <= %d (singleflight per admitted spec)", fake.runCount(), max)
	}
}

func labelReason(v string) obsv.Label {
	return obsv.Label{Key: "reason", Value: v}
}
