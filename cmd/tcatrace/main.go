// Command tcatrace is the scenario command: it runs one observed kernel on
// a fresh ring (a bench.Scenario) and prints one view of it.
//
//   - -view trace (default): each traced span's hop-by-hop latency
//     breakdown, the Fig. 9–10 decomposition.
//   - -view path: the latency anatomy of every transaction — the
//     per-bucket budget table (software, wire, switch, DMA engine and
//     blocked-on waits), the percentile ladder, the slowest transactions,
//     and for ping-pong the analytical-model comparison.
//   - -view top: the fabric sampled every -interval, the hottest series
//     interval by interval, and the bottleneck-attribution verdict.
//
// Every view takes the same scenario flags, the same -fault, and the same
// outputs: the -json budget report, the -check partition gate, a -prof
// host-time table, a -perfetto trace (with counter tracks when the view
// samples) and a -metrics snapshot.
//
//	tcatrace -scenario pingpong -nodes 4 -src 0 -dst 2
//	tcatrace -scenario stream -nodes 8 -dst 3 -events
//	tcatrace -scenario dma -size 4096 -count 8 -metrics json
//	tcatrace -view path -nodes 4 -dst 2 -rounds 8 -check -json budget.json
//	tcatrace -view top -scenario dma -nodes 4 -dst 2 -count 255
//	tcatrace -view top -prof -perfetto trace.json  # open in ui.perfetto.dev
//	tcatrace -nodes 4 -dst 2 -fault linkdown:1e:12us -seed 7 -rounds 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tca/internal/bench"
	"tca/internal/obsv"
	"tca/internal/obsv/critpath"
	"tca/internal/prof"
	"tca/internal/tcanet"
	"tca/internal/units"
)

func main() {
	os.Exit(run())
}

// usage reports a bad flag value and returns the usage-error status.
func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "tcatrace: "+format+"\n", args...)
	return 2
}

// writeFile creates path and fills it with write, returning the first
// error of the create, the write or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func run() int {
	var (
		view     = flag.String("view", "trace", "view: trace | path | top")
		kernel   = flag.String("scenario", "pingpong", "kernel: pingpong | stream | dma")
		nodes    = flag.Int("nodes", 4, "ring size")
		src      = flag.Int("src", 0, "source node")
		dst      = flag.Int("dst", 1, "destination node")
		rounds   = flag.Int("rounds", 1, "ping-pong round trips or stream stores")
		size     = flag.Int("size", 4096, "DMA block size in bytes")
		count    = flag.Int("count", 8, "DMA descriptors per chain")
		stride   = flag.Int("stride", 0, "far-end DMA block stride in bytes (0 = -size)")
		chains   = flag.Int("chains", 1, "back-to-back DMA chains")
		faultStr = flag.String("fault", "", "fault scenario spec, e.g. linkdown:1e:12us or ber:1e-7,drop:0.01 (pingpong only)")
		seed     = flag.Int64("seed", 1, "fault injector seed (with -fault)")
		top      = flag.Int("top", 5, "rows of each ranking: slowest transactions, hottest series, host-time components (0 = all)")
		events   = flag.Bool("events", false, "trace view: also dump each span's raw events")
		interval = flag.Float64("interval", 1, "top view: sampling interval in simulated µs")
		rows     = flag.Int("rows", 20, "top view: maximum table rows, sampling ticks strided to fit (0 = all)")
		profile  = flag.Bool("prof", false, "attach the engine self-profiler: close with the events/sec headline and the components ranked by host time")
		jsonPath = flag.String("json", "", "write the latency-budget report to this path (\"-\" = stdout)")
		check    = flag.Bool("check", false, "exit 1 if any transaction has unattributed or unbalanced time")
		perfetto = flag.String("perfetto", "", "write the spans (and the top view's samples) as a Chrome trace_event file to this path")
		metrics  = flag.String("metrics", "none", "metrics snapshot format: table | json | prom | none")
	)
	flag.Parse()

	switch *view {
	case "trace", "path", "top":
	default:
		return usage("unknown view %q", *view)
	}
	k, ok := bench.KernelByName(*kernel)
	if !ok {
		return usage("unknown scenario %q", *kernel)
	}
	switch *metrics {
	case "table", "json", "prom", "none":
	default:
		return usage("unknown metrics format %q", *metrics)
	}
	sc := bench.Scenario{Kernel: k, Nodes: *nodes, Src: *src, Dst: *dst, Rounds: *rounds,
		Size: units.ByteSize(*size), Count: *count, Stride: units.ByteSize(*stride), Chains: *chains}
	prm := tcanet.DefaultParams
	if err := sc.Validate(prm); err != nil {
		return usage("%v", err)
	}
	if *faultStr != "" && k != bench.KernelPingPong {
		return usage("-fault is only supported for -scenario pingpong (got %q)", *kernel)
	}
	if *top < 0 {
		return usage("-top must not be negative")
	}
	// The check is on the simulated tick: a positive -interval that rounds
	// to 0ps would disable sampling.
	iv := units.Duration(*interval * float64(units.Microsecond))
	if iv <= 0 {
		return usage("-interval must be positive")
	}

	a := bench.Attach{Obsv: true, Fault: *faultStr, Seed: *seed, Label: *kernel}
	if *view == "top" {
		a.Interval = iv
		// The top view prints sampled series only; spans would feed
		// nothing but the budget report, the check and the trace file.
		a.NoSpans = *jsonPath == "" && !*check && *perfetto == ""
	}
	if *profile {
		a.Prof = prof.New(prof.Options{})
	}
	r, res, err := sc.Run(prm, a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcatrace:", err)
		return 1
	}
	title := sc.String()
	if *faultStr != "" {
		title += fmt.Sprintf(", fault %s seed %d", *faultStr, *seed)
	}
	var fleet *critpath.Fleet
	var model []critpath.ModelDiff
	if !a.NoSpans {
		fleet = critpath.Analyze(title, r.Set.Recorder(), res.Txns)
		if k == bench.KernelPingPong {
			model = bench.PingPongModel(prm).CompareFleet(fleet, bench.RingForwardHops(sc.Nodes, sc.Src, sc.Dst))
		}
		if fleet.Evicted > 0 {
			fmt.Fprintf(os.Stderr, "tcatrace: WARNING: span ring evicted %d events — breakdowns and budgets may be truncated\n", fleet.Evicted)
		}
	}
	var tl *obsv.Timeline
	if a.Interval > 0 {
		tl = r.Set.Sampler().Timeline()
	}

	switch *view {
	case "trace":
		fmt.Printf("scenario: %s\n\n", title)
		for i, sp := range r.Spans(res.Txns) {
			fmt.Printf("span %d (txn %d), %d events, hop sum %v:\n", i, sp.Txn, len(sp.Events), sp.Total)
			obsv.WriteBreakdown(os.Stdout, sp.Hops)
			if *events {
				for _, ev := range sp.Events {
					fmt.Printf("    %12v  %s\n", units.Duration(ev.At), ev)
				}
			}
			fmt.Println()
		}
		fmt.Printf("end-to-end: %v\n", res.EndToEnd)
	case "path":
		fmt.Printf("scenario: %s\n\n", title)
		critpath.WriteBudgetTable(os.Stdout, fleet)
		fmt.Println()
		critpath.WriteLadder(os.Stdout, fleet)
		fmt.Println()
		critpath.WriteTopK(os.Stdout, fleet, *top)
		if len(model) > 0 {
			fmt.Println()
			critpath.WriteModel(os.Stdout, model)
		}
	case "top":
		fmt.Printf("scenario: %s\n", title)
		if res.Moved > 0 {
			bw := units.Rate(res.Moved, res.EndToEnd)
			fmt.Printf("moved %v in %v (%.3f GB/s)\n", res.Moved, res.EndToEnd, bw.GBps())
		} else {
			fmt.Printf("elapsed %v\n", res.EndToEnd)
		}
		fmt.Println()
		if hot := obsv.TopSeries(tl.Series(), *top); len(hot) == 0 {
			fmt.Println("no samples recorded (scenario shorter than one interval?)")
		} else {
			obsv.WriteSeriesTable(os.Stdout, hot, *rows)
			fmt.Println()
		}
		obsv.Attribute(r.Snapshot(), tl).WriteReport(os.Stdout)
	}

	if a.Prof != nil {
		fmt.Println()
		fmt.Println(res.Stats.Headline())
		a.Prof.WriteTable(os.Stdout, *top)
	}
	if *perfetto != "" {
		if err := writeFile(*perfetto, func(w io.Writer) error {
			return obsv.WritePerfetto(w, r.Set.Recorder().Events(), tl)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tcatrace:", err)
			return 1
		}
		fmt.Printf("perfetto trace: %s (open in ui.perfetto.dev)\n", *perfetto)
	}
	if *jsonPath != "" {
		report := critpath.ExportReport(fleet, model, *top)
		if *jsonPath == "-" {
			fmt.Println()
			err = report.WriteJSON(os.Stdout)
		} else if err = writeFile(*jsonPath, report.WriteJSON); err == nil {
			fmt.Printf("\nbudget report: %s\n", *jsonPath)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcatrace:", err)
			return 1
		}
	}
	if *check {
		bad := 0
		for _, b := range fleet.Budgets {
			if !b.Consistent() {
				fmt.Fprintf(os.Stderr, "tcatrace: txn %d: buckets sum to %v, end-to-end %v, unattributed %v\n",
					b.Txn, b.Sum(), b.Total, b.Buckets[critpath.BucketUnattributed])
				bad++
			}
		}
		if bad > 0 || fleet.Evicted > 0 {
			fmt.Fprintf(os.Stderr, "tcatrace: check failed: %d/%d transactions inconsistent, %d span events evicted\n",
				bad, len(fleet.Budgets), fleet.Evicted)
			return 1
		}
		fmt.Printf("\ncheck: all %d transactions partition exactly, nothing unattributed\n", len(fleet.Budgets))
	}

	snap := r.Snapshot()
	switch *metrics {
	case "table":
		fmt.Println("\nmetrics:")
		snap.WriteTable(os.Stdout)
	case "json":
		fmt.Println()
		if err := snap.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tcatrace:", err)
			return 1
		}
	case "prom":
		fmt.Println()
		snap.WritePrometheus(os.Stdout)
	}
	return 0
}
