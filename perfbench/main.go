// Command perfbench is the repository benchmark. It runs one workload per
// process and prints, as the last line of standard output, one JSON object
// with the run's verdict and metrics:
//
//	perfbench --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times the workload and reports the end-to-end metrics
// (host time unless noted; see README.md for why the gated throughput
// figure is CPU time). With --trace 1 it runs the workload once
// untraced and once traced, runs the layer probes, writes the spans to
// .bench_build/trace/, and reports the per-layer metrics. README.md in this
// directory explains the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one timed.
const setupRepeats = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is what one timed phase of a workload produced.
type phase struct {
	wallS     float64
	unitsMS   []float64 // per-unit host latency
	attempted int
	failed    int
	// problems lists run-level correctness failures (digest mismatch,
	// a broken tcad guarantee); empty means the outputs checked out.
	problems []string
	// layer holds workload-specific per-layer figures (tcad hit ratio,
	// check runs per spec) computed from the phase itself.
	layer map[string]metric
}

// workload is a prepared workload: inputs are generated, the timed phase
// has not run yet.
type workload interface {
	// run executes the timed phase; tr is nil when untraced, root the
	// enclosing span.
	run(tr *tracer, root int) *phase
	close()
}

// workloadDef names a workload and builds it from the seed and run
// length, tracing the set-up calls under parent. Set-up returns the
// paper_err_pct it measured, or 0 when it measured none.
type workloadDef struct {
	name  string
	setup func(seed int64, seconds int, tr *tracer, parent int) (workload, float64, error)
}

var workloads = []workloadDef{
	{"paper-suite", setupPaperSuite},
	{"fuzz-corpus", setupFuzzCorpus},
	{"tcad-storm", setupTcadStorm},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: paper-suite, fuzz-corpus or tcad-storm")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 20, "target length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	)
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {paper-suite|fuzz-corpus|tcad-storm}, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = tracedRun(def, *seed, *seconds)
	} else {
		rep, err = timedRun(def, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// timedRun is the untraced end-to-end run.
func timedRun(def *workloadDef, seed int64, seconds int) (*report, error) {
	var setups, setupWalls []float64
	var w workload
	var errPct float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		start, before := time.Now(), runtimeSample()
		var err error
		w, errPct, err = def.setup(seed, seconds, nil, -1)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, runtimeSample().cpuS-before.cpuS)
		setupWalls = append(setupWalls, time.Since(start).Seconds())
	}
	before := runtimeSample()
	ph := w.run(nil, -1)
	after := runtimeSample()
	w.close()
	if errPct == 0 {
		errPct = paperErrPct()
	}
	p50 := quantile(ph.unitsMS, 0.50)
	p95 := quantile(ph.unitsMS, 0.95)
	cpuS := after.cpuS - before.cpuS
	fmt.Printf("%s seed=%d: cpu %.3f s, wall %.3f s, setup cpu %.4f s (wall %.4f s, medians of %d), units %d (failed %d), unit p50 %.3f ms, p95 %.3f ms (%d beyond), paper error %.4f%%\n",
		def.name, seed, cpuS, ph.wallS, median(setups), median(setupWalls), len(setups), len(ph.unitsMS), ph.failed, p50, p95,
		len(ph.unitsMS)-int(math.Ceil(0.95*float64(len(ph.unitsMS)))), errPct)
	for _, p := range ph.problems {
		fmt.Printf("problem: %s\n", p)
	}
	return &report{
		Correct:   len(ph.problems) == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"cpu_s":         {cpuS, "s"},
			"setup_s":       {median(setups), "s"},
			"peak_rss_mb":   {peakRSSMB(), "MB"},
			"paper_err_pct": {errPct, "%"},
		},
	}, nil
}

// tracedRun runs the workload untraced and then traced on the same inputs
// (each at half the run length), then every layer probe, and reports the
// per-layer metrics.
func tracedRun(def *workloadDef, seed int64, seconds int) (*report, error) {
	half := (seconds + 1) / 2
	w, _, err := def.setup(seed, half, nil, -1)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	before := runtimeSample()
	plain := w.run(nil, -1)
	after := runtimeSample()
	w.close()

	tr := newTracer()
	setupSpan := tr.begin("setup", -1, -1)
	w, _, err = def.setup(seed, half, tr, setupSpan)
	tr.end(setupSpan)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	root := tr.begin("workload."+def.name, -1, -1)
	traced := w.run(tr, root)
	tr.end(root)
	w.close()

	m := map[string]metric{}
	problems := append(plain.problems, traced.problems...)
	if err := runProbes(tr, def.name, seed, m); err != nil {
		problems = append(problems, err.Error())
	}
	for k, v := range traced.layer {
		m[k] = v
	}
	cov := tr.coverage(root) * 100
	if cov < 95 {
		problems = append(problems, fmt.Sprintf("trace: spans cover %.1f%% of the traced workload, want >= 95%%", cov))
	}
	m["trace.coverage_pct"] = metric{cov, "%"}
	m["trace.overhead_pct"] = metric{(traced.wallS/plain.wallS - 1) * 100, "%"}
	m["go.alloc_mb"] = metric{(after.allocBytes - before.allocBytes) / 1e6, "MB"}
	m["go.gc_cycles"] = metric{after.gcCycles - before.gcCycles, "count"}
	m["proc.sys_s"] = metric{after.sysS - before.sysS, "s"}
	m["run.wall_s"] = metric{plain.wallS, "s"}
	m["unit_p50_ms"] = metric{quantile(plain.unitsMS, 0.50), "ms"}
	m["unit_p95_ms"] = metric{quantile(plain.unitsMS, 0.95), "ms"}
	m["units"] = metric{float64(len(plain.unitsMS)), "count"}

	path := fmt.Sprintf(".bench_build/trace/%s-seed%d.json", def.name, seed)
	if err := tr.write(path); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	rows := tr.selfTimes()
	fmt.Printf("self time (top 12 of %d span names; spans in %s):\n", len(rows), path)
	for i, r := range rows {
		if i == 12 {
			break
		}
		fmt.Printf("  %-34s calls %7d  total %10.1f ms  self %10.1f ms\n", r.Name, r.Calls, r.TotalMS, r.SelfMS)
	}
	for _, p := range problems {
		fmt.Printf("problem: %s\n", p)
	}
	return &report{
		Correct:   len(problems) == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// runtimeTotals is a process-wide runtime and kernel reading. cpuS is user
// plus system CPU time of every thread; it excludes time the host did not
// run the process (steal on a shared VM), which wall time includes.
type runtimeTotals struct {
	allocBytes, gcCycles, sysS, cpuS float64
}

func runtimeSample() runtimeTotals {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeTotals{
		allocBytes: float64(ms.TotalAlloc),
		gcCycles:   float64(ms.NumGC),
		sysS:       float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6,
		cpuS: float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6 +
			float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without procfs, fall back to the kernel's max RSS (KiB on Linux).
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// median returns the middle value (mean of the two middle ones).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
