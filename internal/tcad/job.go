package tcad

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"tca/internal/bench"
	"tca/internal/scenariogen"
)

// Priority selects the admission lane. Interactive submissions are
// dispatched ahead of sweep batches, so a human poking at one spec is
// never stuck behind a thousand-point parameter grid.
type Priority uint8

const (
	PriorityInteractive Priority = iota
	PrioritySweep
	laneCount
)

// String names the lane ("interactive", "sweep").
func (p Priority) String() string {
	if p == PrioritySweep {
		return "sweep"
	}
	return "interactive"
}

// ParsePriority reads the wire form; "" defaults to interactive.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return PriorityInteractive, nil
	case "sweep":
		return PrioritySweep, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want interactive or sweep)", s)
}

// JobKind separates scenario simulations from parameter sweeps.
type JobKind uint8

const (
	KindScenario JobKind = iota
	KindSweep
)

// String names the kind for the API.
func (k JobKind) String() string {
	if k == KindSweep {
		return "sweep"
	}
	return "scenario"
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateSucceeded   State = "succeeded"
	StateFailed      State = "failed"
	StateQuarantined State = "quarantined"
)

// FailureClass says why a job stopped. Every class is terminal on its
// first occurrence; a panic also quarantines the job as poison.
type FailureClass string

const (
	FailPanic    FailureClass = "panic"
	FailBudget   FailureClass = "budget"
	FailInternal FailureClass = "internal"
)

// Failure is the structured record of why a job stopped making progress.
type Failure struct {
	Class   FailureClass `json:"class"`
	Message string       `json:"message"`
	// Stack is the goroutine stack captured at the recover() site for
	// panicking jobs.
	Stack string `json:"stack,omitempty"`
	// Reproducer is the auto-shrunk canonical spec that still triggers
	// the panic — committable as-is for a regression test.
	Reproducer string `json:"reproducer,omitempty"`
	// Attempts is how many runs the job got before this verdict: one,
	// plus one for each grace-expired drain that checkpointed it mid-run
	// and the restart that ran it again.
	Attempts int `json:"attempts"`
}

// Request is the POST /jobs body.
type Request struct {
	// Spec is a scenario in the scenariogen grammar. Exactly one of
	// Spec and Sweep must be set.
	Spec string `json:"spec,omitempty"`
	// Sweep names a bench parameter sweep ("cable", "credits", ...).
	Sweep string `json:"sweep,omitempty"`
	// Priority is "interactive" (default) or "sweep".
	Priority string `json:"priority,omitempty"`
	// MaxEvents / MaxHostMS override the server's default engine-run
	// budget for this job (0 = server default).
	MaxEvents uint64 `json:"max_events,omitempty"`
	MaxHostMS int64  `json:"max_host_ms,omitempty"`
}

// SubmitResponse acknowledges a submission. Cached is true when the
// submission deduplicated onto an already-completed result — the served
// payload is byte-identical to the first run's.
type SubmitResponse struct {
	ID     uint64 `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

// Job is one admitted unit of work. Identity fields (everything through
// Key) are immutable after admission; lifecycle fields are guarded by
// Server.mu.
type Job struct {
	ID       uint64
	Kind     JobKind
	Priority Priority
	// Spec/SpecText are the parsed and canonical forms of a scenario
	// job; Sweep names a sweep job.
	Spec     scenariogen.Spec
	SpecText string
	Sweep    string
	// MaxEvents/MaxHost are the per-engine-run budget.
	MaxEvents uint64
	MaxHost   time.Duration
	// Key is the deterministic cache key.
	Key string

	State    State
	Attempts int
	Failure  *Failure
	// Result is the marshaled result payload; the cache serves these
	// exact bytes for every duplicate submission.
	Result []byte
	// Host-clock stamps (prof.HostNanos) for latency accounting.
	SubmittedNS, StartedNS, DoneNS int64
}

// Status is the API projection of a Job.
type Status struct {
	ID       uint64          `json:"id"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	Priority string          `json:"priority"`
	Attempts int             `json:"attempts"`
	Spec     string          `json:"spec,omitempty"`
	Sweep    string          `json:"sweep,omitempty"`
	Key      string          `json:"key"`
	Failure  *Failure        `json:"failure,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	// QueueNS / RunNS are host-clock durations (admission→start and
	// start→done) for completed work.
	QueueNS int64 `json:"queue_ns,omitempty"`
	RunNS   int64 `json:"run_ns,omitempty"`
}

// status snapshots the job; the caller holds Server.mu.
func (j *Job) status() Status {
	st := Status{
		ID:       j.ID,
		Kind:     j.Kind.String(),
		State:    string(j.State),
		Priority: j.Priority.String(),
		Attempts: j.Attempts,
		Spec:     j.SpecText,
		Sweep:    j.Sweep,
		Key:      j.Key,
		Failure:  j.Failure,
		Result:   json.RawMessage(j.Result),
	}
	if j.StartedNS > 0 {
		st.QueueNS = j.StartedNS - j.SubmittedNS
	}
	if j.DoneNS > 0 && j.StartedNS > 0 {
		st.RunNS = j.DoneNS - j.StartedNS
	}
	return st
}

// ScenarioResult is the result payload of a scenario job: the full
// differential-replay verdict plus the deterministic transcript, under a
// versioned schema so cached bytes stay comparable across daemon
// restarts.
type ScenarioResult struct {
	Version        string   `json:"version"` // "tcad-result/1"
	Key            string   `json:"key"`
	Spec           string   `json:"spec"`
	DeterminismOK  bool     `json:"determinism_ok"`
	MemoryChecked  bool     `json:"memory_checked"`
	MemoryOK       bool     `json:"memory_ok"`
	CheckFailures  []string `json:"check_failures,omitempty"`
	FullyRecovered bool     `json:"fully_recovered"`
	OpsDone        int      `json:"ops_done"`
	OpsWaited      int      `json:"ops_waited"`
	EndPS          int64    `json:"end_ps"`
	Transcript     string   `json:"transcript"`
}

// SweepResult is the result payload of a sweep job.
type SweepResult struct {
	Version string       `json:"version"` // "tcad-sweep-result/1"
	Key     string       `json:"key"`
	Name    string       `json:"name"`
	Table   *bench.Table `json:"table"`
}

const (
	scenarioResultVersion = "tcad-result/1"
	sweepResultVersion    = "tcad-sweep-result/1"
)

// defaultParamsFP stands for the calibrated simulation parameters the
// daemon runs with, so a cache key can never alias results computed under
// different constants. Bump it when a default that changes results
// changes; renaming, adding or deleting a parameter that changes no
// result leaves it alone (TestDefaultParamsPinned trips on every change
// to tcanet.DefaultParams and asks which kind it was). The value is the
// first 8 bytes of sha256 over %+v of the parameter set it was frozen at.
const defaultParamsFP = "484c950418191861"

// scenarioKey is the deterministic result-cache key of a scenario job:
// the canonical spec form already carries the seed, the ops, and the
// fault schedule, and the params fingerprint pins the remaining inputs.
func scenarioKey(canonical string) string {
	h := sha256.Sum256([]byte(scenarioResultVersion + "\x00scenario\x00" + defaultParamsFP + "\x00" + canonical))
	return hex.EncodeToString(h[:16])
}

// sweepKey is the cache key of a parameter sweep.
func sweepKey(name string) string {
	h := sha256.Sum256([]byte(sweepResultVersion + "\x00sweep\x00" + defaultParamsFP + "\x00" + name))
	return hex.EncodeToString(h[:16])
}

// knownSweep reports whether bench registers the named sweep.
func knownSweep(name string) bool {
	_, ok := bench.Sweeps()[name]
	return ok
}
