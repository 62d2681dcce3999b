package main

import "testing"

func TestNegativeFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "-1"},
		{"-workers", "-2"},
		{"-verify-every", "-3"},
		{"-drain-grace", "-1s"},
		{"-max-host", "-1s"},
		// A zero would silently become tcad.Config's default.
		{"-queue", "0"},
		{"-max-events", "0"},
		{"-max-host", "0"},
		{"-drain-grace", "0"},
		// A job runs once: there is no -retries flag.
		{"-retries", "1"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestZeroMeaningFlagsAccepted(t *testing.T) {
	cfg, _, err := parseFlags([]string{"-workers", "0", "-verify-every", "0"})
	if err != nil {
		t.Fatalf("-workers 0 -verify-every 0: %v", err)
	}
	if cfg.Workers != 0 || cfg.VerifyEvery != 0 {
		t.Fatalf("cfg = %+v, want Workers 0 (GOMAXPROCS) and VerifyEvery 0 (off)", cfg)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code := run([]string{"-h"}); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
}
