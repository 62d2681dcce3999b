// Package tcad is the supervised simulation service: the controlplane
// half of the controlplane/dataplane split that turns the batch simulator
// into a long-running daemon (cmd/tcad).
//
// The daemon accepts scenario specs (the scenariogen grammar, which
// embeds the fault.ParseScenario fault schedules) and parameter-sweep
// requests over an HTTP/JSON job API, schedules them onto a pool of
// worker goroutines — each worker drives one sim.Engine at a time — and
// serves results with full provenance. Every simulation engine stays
// single-threaded and bit-deterministic; all concurrency lives up here in
// host-side supervision code:
//
//   - Supervision: each job runs under recover(). A panicking scenario
//     becomes a structured failure carrying the stack, the offending
//     spec, and an auto-shrunk reproducer (scenariogen.Shrink) — never a
//     daemon crash.
//   - Deadlines and budgets: every engine run is bounded by a
//     sim.Engine budget (max events plus a host wall-clock allowance
//     checked every few hundred events through prof.HostNanos). A job
//     that exhausts its budget fails with the typed sim.BudgetError.
//     A job runs once: engine runs are deterministic, so a panicking
//     job would only panic again, and it is quarantined on its first
//     occurrence.
//   - Backpressure: a bounded two-lane admission queue (interactive
//     ahead of sweep) sheds load with 503 + Retry-After when full, and a
//     SIGTERM-initiated drain finishes in-flight jobs, checkpoints the
//     pending queue to disk, and restores it on restart.
//   - Deterministic result cache: results are keyed by the canonical
//     spec form (which carries the seed) plus a fingerprint of the
//     simulation parameters. Concurrent identical submissions
//     deduplicate onto one engine run (singleflight), and an integrity
//     mode re-runs a sampled fraction of cache hits and byte-compares
//     the internal/check transcripts to prove cached results are still
//     bit-identical.
//
// The wall clock is legal here — this package is controlplane code, and
// host time (timeouts, latency metrics) never feeds simulated state —
// which is why the simdeterminism analyzer exempts exactly this package
// alongside internal/prof.
package tcad

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"tca/internal/obsv"
	"tca/internal/prof"
	"tca/internal/scenariogen"
)

// Typed admission errors; the HTTP layer maps them to status codes.
var (
	// ErrBadRequest: the submission was malformed (400).
	ErrBadRequest = errors.New("tcad: bad request")
	// ErrQueueFull: the lane's admission queue is at capacity (503 +
	// Retry-After).
	ErrQueueFull = errors.New("tcad: admission queue full")
	// ErrDraining: the daemon is shutting down and admits nothing (503).
	ErrDraining = errors.New("tcad: draining")
)

// Config tunes a Server. The zero value of every field selects a sane
// default in New.
type Config struct {
	// Workers is the worker-goroutine count; each worker runs one
	// sim.Engine at a time. Default: runtime.GOMAXPROCS(0).
	Workers int
	// QueueCap bounds each priority lane of the admission queue; a full
	// lane sheds new submissions. Default 256.
	QueueCap int
	// DefaultMaxEvents / DefaultMaxHost are the per-job engine-run
	// budgets applied when a submission does not set its own. Defaults:
	// 50M events, 30s host time.
	DefaultMaxEvents uint64
	DefaultMaxHost   time.Duration
	// VerifyEvery enables cache-integrity mode: every VerifyEvery-th
	// cache hit re-runs the scenario in the background and byte-compares
	// the internal/check transcript against the cached one. 0 disables.
	VerifyEvery int
	// CheckpointPath, when set, is where a drain persists the pending
	// queue and where New restores it from. "" disables checkpointing.
	CheckpointPath string
	// DrainGrace bounds how long Drain waits for in-flight jobs before
	// checkpointing them as pending and giving up. Default 30s.
	DrainGrace time.Duration
	// Runner executes job bodies; nil selects DefaultRunner. Tests
	// inject deliberate panics and budget failures here.
	Runner Runner
	// Registry receives the daemon's self-metrics; nil creates a fresh
	// one.
	Registry *obsv.Registry
	// Logf, when non-nil, receives one line per notable supervision
	// event (quarantine, verify failure, checkpoint restore).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.DefaultMaxEvents == 0 {
		c.DefaultMaxEvents = 50_000_000
	}
	if c.DefaultMaxHost == 0 {
		c.DefaultMaxHost = 30 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 30 * time.Second
	}
	if c.Runner == nil {
		c.Runner = DefaultRunner{}
	}
	if c.Registry == nil {
		c.Registry = obsv.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the supervised simulation service. Create one with New; it
// starts its worker pool immediately and serves until Drain or Close.
type Server struct {
	cfg    Config
	met    *metrics
	q      *queue
	runner Runner

	// mu guards the job table, the result cache, and the draining flag.
	// The admission queue has its own lock; mu may be held while taking
	// it (push under admission), never the reverse.
	mu       sync.Mutex
	jobs     map[uint64]*Job
	order    []uint64 // submission order, for deterministic listings
	cache    map[string]*cacheEntry
	nextID   uint64
	draining bool

	// wg counts workers and background verify runs.
	wg sync.WaitGroup
}

// New builds a Server, restores any checkpointed queue, and starts the
// worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		met:    newMetrics(cfg.Registry),
		runner: cfg.Runner,
		jobs:   make(map[uint64]*Job),
		cache:  make(map[string]*cacheEntry),
	}
	s.q = newQueue(cfg.QueueCap, s.met)
	if err := s.restore(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit admits one job. Identical submissions (same cache key)
// deduplicate onto the existing job — one engine run no matter how many
// clients ask — and the response carries the canonical job ID. Shed and
// drain conditions surface as ErrQueueFull / ErrDraining.
func (s *Server) Submit(req Request) (SubmitResponse, error) {
	j, err := s.buildJob(req)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.shedDraining.Inc()
		return SubmitResponse{}, ErrDraining
	}
	if e, ok := s.cache[j.Key]; ok {
		owner := s.jobs[e.jobID]
		e.hits++
		s.met.cacheHits.Inc()
		resp := SubmitResponse{ID: e.jobID, State: string(owner.State), Cached: e.done}
		verify := e.done && owner.Kind == KindScenario &&
			s.cfg.VerifyEvery > 0 && e.hits%uint64(s.cfg.VerifyEvery) == 0
		want := e.transcript
		s.mu.Unlock()
		if verify {
			s.spawnVerify(owner, want)
		}
		return resp, nil
	}
	s.met.cacheMisses.Inc()
	s.nextID++
	j.ID = s.nextID
	j.State = StateQueued
	j.SubmittedNS = prof.HostNanos()
	if err := s.q.push(j); err != nil {
		s.nextID--
		s.mu.Unlock()
		s.met.shedFull.Inc()
		return SubmitResponse{}, err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.cache[j.Key] = &cacheEntry{jobID: j.ID}
	s.mu.Unlock()
	s.met.submitted.Inc()
	return SubmitResponse{ID: j.ID, State: string(StateQueued)}, nil
}

// JobStatus snapshots one job for the API; ok is false for unknown IDs.
func (s *Server) JobStatus(id uint64) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Draining reports whether a drain has begun (readiness probes key off
// this).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain performs the graceful-shutdown protocol: stop admitting, let
// in-flight jobs finish (bounded by DrainGrace), then checkpoint every
// still-pending job to CheckpointPath so a restarted daemon completes
// the remainder. It returns an error if the grace period expired with
// jobs still running (they are checkpointed as pending anyway) or if the
// checkpoint could not be written.
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("tcad: already draining")
	}
	s.draining = true
	s.mu.Unlock()
	s.q.close()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	timedOut := false
	t := time.NewTimer(s.cfg.DrainGrace)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		timedOut = true
	}
	if err := s.checkpoint(timedOut); err != nil {
		return err
	}
	if timedOut {
		return fmt.Errorf("tcad: drain grace %v expired with jobs still in flight (checkpointed as pending)", s.cfg.DrainGrace)
	}
	return nil
}

// Close stops the server without checkpointing: admission closes,
// workers finish their current job, background goroutines are reaped.
// Tests use it; the daemon path is Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.q.close()
	s.wg.Wait()
}

// restore reloads a checkpointed queue written by a previous drain and
// deletes the file, so a crash during this run cannot double-restore.
func (s *Server) restore() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	cp, err := readCheckpoint(s.cfg.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	restored := 0
	for _, cj := range cp.Jobs {
		j, err := s.buildJob(cj.request())
		if err != nil {
			s.cfg.Logf("tcad: checkpoint job %d no longer admissible, dropping: %v", cj.ID, err)
			continue
		}
		j.ID = cj.ID
		j.Attempts = cj.Attempts
		j.State = StateQueued
		j.SubmittedNS = prof.HostNanos()
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if _, dup := s.cache[j.Key]; !dup {
			s.cache[j.Key] = &cacheEntry{jobID: j.ID}
		}
		s.q.pushUnbounded(j)
		if j.ID > s.nextID {
			s.nextID = j.ID
		}
		restored++
	}
	if cp.NextID > s.nextID {
		s.nextID = cp.NextID
	}
	if err := os.Remove(s.cfg.CheckpointPath); err != nil {
		return fmt.Errorf("tcad: removing restored checkpoint: %w", err)
	}
	s.cfg.Logf("tcad: restored %d pending jobs from %s", restored, s.cfg.CheckpointPath)
	return nil
}

// buildJob validates and canonicalizes a submission into an unadmitted
// Job (no ID yet).
func (s *Server) buildJob(req Request) (*Job, error) {
	if (req.Spec == "") == (req.Sweep == "") {
		return nil, errors.New("exactly one of \"spec\" and \"sweep\" must be set")
	}
	pri, err := ParsePriority(req.Priority)
	if err != nil {
		return nil, err
	}
	j := &Job{
		Priority:  pri,
		MaxEvents: req.MaxEvents,
		MaxHost:   time.Duration(req.MaxHostMS) * time.Millisecond,
	}
	if j.MaxEvents == 0 {
		j.MaxEvents = s.cfg.DefaultMaxEvents
	}
	if j.MaxHost == 0 {
		j.MaxHost = s.cfg.DefaultMaxHost
	}
	if req.Spec != "" {
		spec, err := scenariogen.Parse(req.Spec)
		if err != nil {
			return nil, err
		}
		j.Kind = KindScenario
		j.Spec = spec
		j.SpecText = scenariogen.Format(spec)
		j.Key = scenarioKey(j.SpecText)
		return j, nil
	}
	if !knownSweep(req.Sweep) {
		return nil, fmt.Errorf("unknown sweep %q", req.Sweep)
	}
	j.Kind = KindSweep
	j.Sweep = req.Sweep
	j.Key = sweepKey(req.Sweep)
	return j, nil
}
