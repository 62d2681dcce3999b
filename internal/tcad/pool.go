package tcad

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"tca/internal/check"
	"tca/internal/prof"
	"tca/internal/scenariogen"
	"tca/internal/sim"
)

// checkOptions derives the internal/check run options from the job's
// admitted budget.
func (j *Job) checkOptions() check.Options {
	return check.Options{MaxEvents: j.MaxEvents, MaxHost: j.MaxHost}
}

// worker is the dataplane loop: pop, run supervised, classify, repeat.
// One goroutine per Config.Workers; each drives at most one sim.Engine at
// a time, so engine code stays single-threaded.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob runs a job once and records its verdict. There is no retry:
// engine runs are deterministic, so a failed run would fail again.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	j.State = StateRunning
	j.Attempts++
	attempt := j.Attempts
	if j.StartedNS == 0 {
		j.StartedNS = prof.HostNanos()
	}
	s.mu.Unlock()
	s.met.started.Inc()
	s.met.inflight.Add(1)

	result, transcript, failure := s.executeSupervised(j)

	s.met.inflight.Add(-1)
	now := prof.HostNanos()

	if failure == nil {
		s.mu.Lock()
		j.State = StateSucceeded
		j.Result = result
		j.DoneNS = now
		if e, ok := s.cache[j.Key]; ok {
			e.done = true
			e.result = result
			e.transcript = transcript
		}
		s.mu.Unlock()
		s.met.succeeded.Inc()
		s.met.jobLatency.Observe(hostDur(now - j.StartedNS))
		return
	}

	// A panicking job is quarantined as poison; its cache slot is
	// released either way so a corrected resubmission is not stuck
	// behind a failed key.
	failure.Attempts = attempt
	terminal := StateFailed
	if failure.Class == FailPanic {
		terminal = StateQuarantined
		if j.Kind == KindScenario {
			failure.Reproducer = s.shrinkReproducer(j)
		}
	}
	s.mu.Lock()
	j.State = terminal
	j.Failure = failure
	j.DoneNS = now
	if e, ok := s.cache[j.Key]; ok && e.jobID == j.ID {
		delete(s.cache, j.Key)
	}
	s.mu.Unlock()
	if terminal == StateQuarantined {
		s.met.quarantined.Inc()
		s.cfg.Logf("tcad: job %d quarantined: %s", j.ID, failure.Message)
	} else {
		s.met.failed.Inc()
	}
	s.met.jobLatency.Observe(hostDur(now - j.StartedNS))
}

// executeSupervised runs the job under recover() and returns the
// marshaled result payload, the check transcript (scenario jobs), and a
// structured failure classification. A panic anywhere inside the
// simulator becomes a FailPanic failure with the stack — never a daemon
// crash.
func (s *Server) executeSupervised(j *Job) (result, transcript []byte, failure *Failure) {
	defer func() {
		if r := recover(); r != nil {
			result, transcript = nil, nil
			failure = &Failure{
				Class:   FailPanic,
				Message: fmt.Sprintf("panic: %v", r),
				Stack:   string(debug.Stack()),
			}
		}
	}()
	switch j.Kind {
	case KindScenario:
		return s.runScenarioJob(j)
	default:
		return s.runSweepJob(j)
	}
}

func (s *Server) runScenarioJob(j *Job) ([]byte, []byte, *Failure) {
	res, err := s.runner.RunScenario(j.Spec, j.checkOptions())
	if err != nil {
		return nil, nil, classifyError(err)
	}
	payload := ScenarioResult{
		Version:       scenarioResultVersion,
		Key:           j.Key,
		Spec:          j.SpecText,
		DeterminismOK: res.DeterminismOK,
		MemoryChecked: res.MemoryChecked,
		MemoryOK:      res.MemoryOK,
		CheckFailures: res.Failures,
	}
	if res.Faulty != nil {
		payload.FullyRecovered = res.Faulty.FullyRecovered
		payload.OpsDone = res.Faulty.OpsDone
		payload.OpsWaited = res.Faulty.OpsWaited
		payload.EndPS = int64(res.Faulty.End)
		payload.Transcript = string(res.Faulty.Transcript)
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, nil, &Failure{Class: FailInternal, Message: "encoding result: " + err.Error()}
	}
	var transcript []byte
	if res.Faulty != nil {
		transcript = res.Faulty.Transcript
	}
	return data, transcript, nil
}

func (s *Server) runSweepJob(j *Job) ([]byte, []byte, *Failure) {
	table, err := s.runner.RunSweep(j.Sweep)
	if err != nil {
		return nil, nil, classifyError(err)
	}
	data, err := json.Marshal(SweepResult{
		Version: sweepResultVersion,
		Key:     j.Key,
		Name:    j.Sweep,
		Table:   table,
	})
	if err != nil {
		return nil, nil, &Failure{Class: FailInternal, Message: "encoding result: " + err.Error()}
	}
	return data, nil, nil
}

// classifyError maps a returned (not panicked) error onto a failure
// class: budget exhaustion is typed, everything else is internal.
func classifyError(err error) *Failure {
	var be *sim.BudgetError
	if errors.As(err, &be) {
		return &Failure{
			Class: FailBudget,
			Message: fmt.Sprintf("%v (reason %s, %d events, %v host)",
				err, be.Reason, be.Events, be.Host.Round(time.Millisecond)),
		}
	}
	return &Failure{Class: FailInternal, Message: err.Error()}
}

// shrinkReproducer minimizes a panicking spec with scenariogen.Shrink.
// The predicate re-runs candidates under the same budget and full panic
// supervision — a candidate only counts as failing if it panics too, so
// the shrunk spec reproduces the original crash class.
func (s *Server) shrinkReproducer(j *Job) string {
	panics := func(c scenariogen.Spec) (failed bool) {
		defer func() {
			if recover() != nil {
				failed = true
			}
		}()
		_, err := s.runner.RunScenario(c, j.checkOptions())
		_ = err
		return false
	}
	small := scenariogen.Shrink(j.Spec, panics)
	return scenariogen.Format(small)
}
