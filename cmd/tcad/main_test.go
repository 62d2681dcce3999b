package main

import (
	"errors"
	"testing"
	"time"

	"tca/internal/bench"
	"tca/internal/check"
	"tca/internal/scenariogen"
	"tca/internal/tcad"
)

// transientRunner fails every scenario run with a retryable error.
type transientRunner struct{}

func (transientRunner) RunScenario(scenariogen.Spec, check.Options) (*check.DiffResult, error) {
	return nil, &tcad.TransientError{Err: errors.New("scripted transient failure")}
}

func (transientRunner) TraceScenario(scenariogen.Spec, check.Options) (*check.Result, error) {
	return nil, &tcad.TransientError{Err: errors.New("scripted transient failure")}
}

func (transientRunner) RunSweep(string) (*bench.Table, error) {
	return nil, &tcad.TransientError{Err: errors.New("scripted transient failure")}
}

// attempts runs one always-failing job on a server configured from args
// and reports how many times it ran.
func attempts(t *testing.T, args ...string) int {
	t.Helper()
	cfg, _, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runner = transientRunner{}
	cfg.RetryBackoff = time.Millisecond
	srv, err := tcad.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := srv.Submit(tcad.Request{Spec: scenariogen.Format(scenariogen.Generate(1))})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, _ := srv.JobStatus(resp.ID)
		if st.State == string(tcad.StateFailed) {
			return st.Failure.Attempts
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never failed")
	return 0
}

func TestRetriesFlag(t *testing.T) {
	for _, tc := range []struct {
		retries string
		want    int
	}{
		{"0", 1}, // no retries: the first run is the only one
		{"1", 2},
		{"2", 3},
	} {
		if got := attempts(t, "-workers", "1", "-retries", tc.retries); got != tc.want {
			t.Errorf("-retries %s: %d attempts, want %d", tc.retries, got, tc.want)
		}
	}
}

func TestNegativeFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-retries", "-1"},
		{"-queue", "-1"},
		{"-workers", "-2"},
		{"-verify-every", "-3"},
		{"-drain-grace", "-1s"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
