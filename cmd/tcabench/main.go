// Command tcabench regenerates the paper's tables and figures.
//
//	tcabench -list               # show every experiment
//	tcabench -exp fig7,fig9      # run selected experiments
//	tcabench -exp all            # run the full evaluation (§IV + ablations)
//	tcabench -exp fig12 -csv     # machine-readable output
//	tcabench -exp all -check     # also apply the shape checks
//	tcabench -bench-json BENCH_PR2.json   # write the headline-number baseline
//	tcabench -perf-json BENCH_PERF.json   # write the engine-performance baseline
//	tcabench -prof pingpong               # events/sec headline + top components by host time
//	tcabench -prof pingpong -cpuprofile cpu.pprof -memprofile heap.pprof
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
		benchOut = flag.String("bench-json", "", "measure the headline figures and write the JSON baseline to this path")
		perfOut  = flag.String("perf-json", "", "measure the engine-performance scenarios on a bare engine and write the JSON baseline to this path")
		profSc   = flag.String("prof", "", "profile an engine scenario (pingpong | forward | chain_dma | all): events/sec headline plus the top components by host time")
		profTop  = flag.Int("prof-top", 12, "component rows shown by -prof")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU pprof profile covering the run to this path")
		memProf  = flag.String("memprofile", "", "write an allocs pprof profile taken after the run to this path")
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
