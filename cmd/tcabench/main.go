// Command tcabench regenerates the paper's tables and figures.
//
//	tcabench -list               # show every experiment
//	tcabench -exp fig7,fig9      # run selected experiments
//	tcabench -exp all            # run the full evaluation (§IV + ablations)
//	tcabench -exp fig12 -csv     # machine-readable output
//	tcabench -exp all -check     # also apply the shape checks
//	tcabench -metrics table      # dump an instrumented run's metrics snapshot
//	tcabench -bench-json BENCH_PR2.json   # write the headline-number baseline
//	tcabench -perf-json BENCH_PERF.json   # write the engine-performance baseline
//	tcabench -prof pingpong               # events/sec headline + top components by host time
//	tcabench -prof pingpong -cpuprofile cpu.pprof -memprofile heap.pprof
//	tcabench -perfetto trace.json         # spans + telemetry counters for ui.perfetto.dev
//	tcabench -fault linkdown:1e:12us -seed 7   # fault ping-pong + injector counters
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"tca/internal/bench"
	"tca/internal/obsv"
	"tca/internal/prof"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// durToSim converts a wall-clock flag value into simulated time.
func durToSim(d time.Duration) units.Duration {
	return units.Duration(d.Nanoseconds()) * units.Nanosecond
}

func main() {
	os.Exit(run())
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

// run carries the whole command so pprof outputs flush on every exit path
// (os.Exit would skip the CPU-profile stop and heap snapshot).
func run() int {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		list     = flag.Bool("list", false, "list available experiments and exit")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		check    = flag.Bool("check", false, "apply each experiment's paper-shape check")
		cable    = flag.Duration("cable", 0, "override the external-cable latency (e.g. 150ns)")
		metrics  = flag.String("metrics", "", "run an instrumented demo workload and dump its metrics snapshot (table | json | prom)")
		benchOut = flag.String("bench-json", "", "measure the headline figures and write the JSON baseline to this path")
		perfOut  = flag.String("perf-json", "", "measure the engine-performance scenarios on a bare engine and write the JSON baseline to this path")
		profSc   = flag.String("prof", "", "profile an engine scenario (pingpong | forward | chain_dma | all): events/sec headline plus the top components by host time")
		profTop  = flag.Int("prof-top", 12, "component rows shown by -prof")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU pprof profile covering the run to this path")
		memProf  = flag.String("memprofile", "", "write an allocs pprof profile taken after the run to this path")
		perfetto = flag.String("perfetto", "", "run the sampled forward-DMA demo and write a Chrome trace_event file to this path")
		faultStr = flag.String("fault", "", "run the fault ping-pong (4-node ring, 0<->2, 10 rounds) under this scenario spec and dump the injector counters")
		seed     = flag.Int64("seed", 1, "fault injector seed (with -fault)")
	)
	flag.Parse()

	if *cpuProf != "" {
		stop, err := prof.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcabench:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "tcabench:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := prof.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "tcabench:", err)
			}
		}()
	}

	prm := tcanet.DefaultParams
	if *cable > 0 {
		prm.CableProp = durToSim(*cable)
	}

	if *benchOut != "" {
		if err := writeFile(*benchOut, func(w io.Writer) error {
			return bench.CollectBaseline(tcanet.DefaultParams).WriteJSON(w)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tcabench:", err)
			return 1
		}
		fmt.Printf("baseline written: %s\n", *benchOut)
		return 0
	}

	if *perfOut != "" {
		if err := writeFile(*perfOut, func(w io.Writer) error {
			return bench.CollectPerfBaseline(tcanet.DefaultParams).WriteJSON(w)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tcabench:", err)
			return 1
		}
		fmt.Printf("perf baseline written: %s\n", *perfOut)
		return 0
	}

	if *profSc != "" {
		names := []string{*profSc}
		if strings.EqualFold(*profSc, "all") {
			names = bench.PerfScenarioNames
		}
		for i, name := range names {
			if !slices.Contains(bench.PerfScenarioNames, name) {
				fmt.Fprintf(os.Stderr, "tcabench: unknown -prof scenario %q (have %s, all)\n",
					name, strings.Join(bench.PerfScenarioNames, ", "))
				return 2
			}
			// Component pprof labels only pay off when a CPU profile is
			// being taken; they cost a goroutine-label swap per event.
			p := prof.New(prof.Options{LabelComponents: *cpuProf != ""})
			st := bench.RunPerfScenario(name, prm, p)
			if i > 0 {
				fmt.Println()
			}
			fmt.Println(st.Headline())
			p.WriteTable(os.Stdout, *profTop)
		}
		return 0
	}

	if *perfetto != "" {
		// Run profiled so the trace carries the engine's cumulative
		// host-time counter track next to the fabric telemetry.
		sc := bench.Scenario{Kernel: bench.KernelChainDMA, Nodes: 4, Src: 0, Dst: 2, Size: 4096, Count: 64, Chains: 1}
		r, _, err := sc.Run(tcanet.DefaultParams, bench.Attach{Obsv: true,
			Prof: prof.New(prof.Options{}), Label: "telemetry-forward", Interval: units.Microsecond})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcabench:", err)
			return 1
		}
		if err := writeFile(*perfetto, func(w io.Writer) error {
			return obsv.WritePerfetto(w, r.Set.Recorder().Events(), r.Set.Sampler().Timeline())
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tcabench:", err)
			return 1
		}
		fmt.Printf("scenario: forward DMA %d×%v node%d->node%d (4-node ring), sampled every %v\nperfetto trace: %s (open in ui.perfetto.dev)\n",
			sc.Count, sc.Size, sc.Src, sc.Dst, units.Microsecond, *perfetto)
		return 0
	}

	if *metrics != "" {
		// A short representative workload on one observed 4-node ring: a
		// 2-hop PIO forward, then a chained DMA to the adjacent node.
		r, err := bench.NewRig(4, tcanet.DefaultParams, bench.Attach{Obsv: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcabench:", err)
			return 1
		}
		r.StoreStream(0, 2, 1, []byte{1, 0, 0, 0, 0, 0, 0, 0})
		r.ChainDMA(bench.Chain{Dst: 1, Size: 4096, Count: 16})
		snap := r.Snapshot()
		switch *metrics {
		case "table":
			snap.WriteTable(os.Stdout)
		case "json":
			if err := snap.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tcabench:", err)
				return 1
			}
		case "prom":
			snap.WritePrometheus(os.Stdout)
		default:
			fmt.Fprintf(os.Stderr, "tcabench: unknown -metrics format %q\n", *metrics)
			return 2
		}
		return 0
	}

	if *faultStr != "" {
		sc := bench.Scenario{Kernel: bench.KernelPingPong, Nodes: 4, Src: 0, Dst: 2, Rounds: 10}
		r, res, err := sc.Run(tcanet.DefaultParams, bench.Attach{Obsv: true, Fault: *faultStr, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcabench:", err)
			return 1
		}
		fmt.Printf("scenario: fault ping-pong node%d<->node%d ×%d (%d-node ring, %s, seed %d)\nend-to-end: %v\n"+
			"spans: %d (all payloads verified byte-identical)\n\nmetrics:\n",
			sc.Src, sc.Dst, sc.Rounds, sc.Nodes, *faultStr, *seed, res.EndToEnd, len(res.Txns))
		r.Snapshot().WriteTable(os.Stdout)
		return 0
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Desc)
		}
		return 0
	}

	var selected []bench.Experiment
	if strings.EqualFold(*exp, "all") {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "tcabench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	// Every experiment owns its engine, so running them concurrently
	// prints exactly what a serial run prints.
	tables := bench.RunParallel(prm, selected)
	failed := 0
	for i, e := range selected {
		tab := tables[i]
		if *csv {
			if err := tab.CSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "tcabench: %s: rendering: %v\n", e.ID, err)
				failed++
			}
			fmt.Println()
		} else if err := tab.Format(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "tcabench: %s: rendering: %v\n", e.ID, err)
			failed++
		}
		if *check && e.Check != nil {
			if err := e.Check(tab); err != nil {
				fmt.Fprintf(os.Stderr, "tcabench: %s: SHAPE CHECK FAILED: %v\n", e.ID, err)
				failed++
			} else {
				fmt.Printf("  shape check: OK\n\n")
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
