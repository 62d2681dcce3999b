// Command tcad runs the supervised simulation service: an HTTP/JSON
// daemon that accepts scenario specs and sweep requests, schedules them
// onto a worker pool (one sim.Engine per worker at a time), and serves
// results with provenance, retries, backpressure, and a deterministic
// result cache.
//
//	tcad -addr :7421 -workers 8 -checkpoint /var/lib/tcad/queue.json
//
// SIGTERM (or SIGINT) starts a graceful drain: readiness flips to 503,
// in-flight jobs finish within the grace period, the pending queue is
// checkpointed to disk, and the process exits 0. A restart with the same
// -checkpoint completes the remainder.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tca/internal/tcad"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	cfg, addr, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcad: %v\n", err)
		return 2
	}
	logger := log.New(os.Stderr, "tcad: ", log.LstdFlags)
	cfg.Logf = func(format string, args ...any) {
		logger.Printf(format, args...)
	}
	srv, err := tcad.New(cfg)
	if err != nil {
		logger.Printf("startup failed: %v", err)
		return 1
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("serving on %s (%d workers, queue %d/lane)", addr, effectiveWorkers(cfg.Workers), cfg.QueueCap)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		logger.Printf("listener failed: %v", err)
		srv.Close()
		return 1
	case s := <-sig:
		logger.Printf("received %v, draining (grace %v)", s, cfg.DrainGrace)
	}

	// Drain protocol: stop admitting (readyz flips to 503 immediately),
	// finish in-flight work, checkpoint the remainder, then close the
	// listener. Clients mid-request still get their responses.
	drainErr := srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	<-errCh // ListenAndServe returns ErrServerClosed after Shutdown
	if drainErr != nil {
		// A grace-expired drain still checkpointed whatever was pending;
		// report it but exit 0 so orchestrators treat the stop as clean.
		logger.Printf("drain: %v", drainErr)
	}
	logger.Printf("drained, exiting")
	return 0
}

// parseFlags turns the command line into the server config and the listen
// address. Counts and durations must not be negative. -retries 0 means no
// retries; tcad.Config spells that as a negative MaxRetries, because its
// zero value selects the default.
func parseFlags(args []string) (tcad.Config, string, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":7421", "listen address")
		workers     = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		queueCap    = fs.Int("queue", 256, "admission queue capacity per priority lane")
		retries     = fs.Int("retries", 2, "max retries for panicking/transient jobs before quarantine")
		maxEvents   = fs.Uint64("max-events", 50_000_000, "default per-job engine event budget")
		maxHost     = fs.Duration("max-host", 30*time.Second, "default per-job host wall-clock budget")
		verifyEvery = fs.Int("verify-every", 0, "re-verify every Nth cache hit against a fresh run (0 = off)")
		checkpoint  = fs.String("checkpoint", "", "path for the drain checkpoint (empty = no checkpointing)")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight jobs")
	)
	fs.Parse(args)
	if *workers < 0 || *queueCap < 0 || *retries < 0 || *verifyEvery < 0 || *drainGrace < 0 {
		return tcad.Config{}, "", errors.New("-workers, -queue, -retries, -verify-every and -drain-grace must not be negative")
	}
	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1
	}
	return tcad.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		MaxRetries:       maxRetries,
		DefaultMaxEvents: *maxEvents,
		DefaultMaxHost:   *maxHost,
		VerifyEvery:      *verifyEvery,
		CheckpointPath:   *checkpoint,
		DrainGrace:       *drainGrace,
	}, *addr, nil
}

func effectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
