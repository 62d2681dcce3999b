// Command tcafuzz drives the scenario fuzzer: seeded random fabric
// scenarios (topology, DMA/PIO programs, collective rounds, fault
// schedules) run under the conservation ledger and the differential
// replay protocol. Every failing case is shrunk to a minimal spec and
// written out as a replayable file.
//
//	tcafuzz -corpus 200 -seed 1            # the bounded CI smoke
//	tcafuzz -soak -seed 42                 # run until a failure (or ^C)
//	tcafuzz -replay failing.tcaspec        # re-run one committed spec
//	tcafuzz -corpus 50 -break-salvage      # prove the checker catches bugs
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tca/internal/check"
	"tca/internal/scenariogen"
	"tca/internal/sim"
)

func main() {
	var (
		corpus       = flag.Int("corpus", 200, "number of generated scenarios to run")
		seed         = flag.Int64("seed", 1, "master seed for the scenario stream")
		soak         = flag.Bool("soak", false, "run unbounded until a failure (ignores -corpus)")
		out          = flag.String("out", "", "directory for minimized failing specs (default: alongside the binary's cwd)")
		breakSalvage = flag.Bool("break-salvage", false, "inject the deliberate salvage bug (checker must catch it)")
		replay       = flag.String("replay", "", "re-run one spec file instead of generating a corpus")
		verbose      = flag.Bool("v", false, "print every scenario as it runs")
		budgetEvents = flag.Uint64("budget-events", 0, "per-run engine event budget (0 = unlimited; -soak defaults to 50M)")
		budgetHost   = flag.Duration("budget-host", 0, "per-run host wall-clock budget (0 = unlimited; -soak defaults to 30s)")
	)
	flag.Parse()

	// A soak runs unattended: default budgets turn a hypothetical
	// runaway scenario into a skipped case instead of a hung fuzzer.
	if *soak {
		if *budgetEvents == 0 {
			*budgetEvents = 50_000_000
		}
		if *budgetHost == 0 {
			*budgetHost = 30 * time.Second
		}
	}

	if !*soak && *replay == "" && *corpus < 1 {
		fmt.Fprintln(os.Stderr, "tcafuzz: -corpus must be positive")
		os.Exit(2)
	}

	opt := check.Options{BreakSalvage: *breakSalvage, MaxEvents: *budgetEvents, MaxHost: *budgetHost}

	if *replay != "" {
		os.Exit(replayFile(*replay, opt))
	}

	master := rand.New(rand.NewSource(*seed))
	var ran, failed, skipped int
	for i := 0; *soak || i < *corpus; i++ {
		caseSeed := master.Int63()
		spec := scenariogen.Generate(caseSeed)
		if *verbose {
			fmt.Printf("--- case %d (seed %d): %d nodes, %d ops, faults=%q\n",
				i, caseSeed, spec.Nodes(), len(spec.Ops), spec.Faults)
		}
		d, err := check.RunDiff(spec, opt)
		ran++
		if err != nil {
			var be *sim.BudgetError
			if errors.As(err, &be) {
				// Budget exhaustion is a skip, not a crash: the case was
				// too big for the allowance, which is exactly what the
				// budget is for. Log it and keep fuzzing.
				skipped++
				fmt.Fprintf(os.Stderr, "tcafuzz: case %d (seed %d) skipped, budget exceeded: %v\n",
					i, caseSeed, be)
				continue
			}
			// Generate only emits Validate-clean specs; any other error
			// here is a fuzzer bug, not a fabric bug.
			fmt.Fprintf(os.Stderr, "tcafuzz: case %d (seed %d): %v\nspec:\n%s",
				i, caseSeed, err, scenariogen.Format(spec))
			os.Exit(2)
		}
		if d.Failed() {
			failed++
			reportFailure(i, caseSeed, spec, d, opt, *out)
			fmt.Printf("\nran %d scenarios, %d failed\n", ran, failed)
			os.Exit(1)
		}
	}
	fmt.Printf("ran %d scenarios, 0 failures, %d budget-skipped (master seed %d)\n", ran, skipped, *seed)
	if *breakSalvage {
		// The flag exists to prove the checker has teeth; a clean sweep
		// with the bug armed means it does not.
		fmt.Fprintln(os.Stderr, "tcafuzz: -break-salvage ran clean — the checker missed the injected bug")
		os.Exit(1)
	}
}

// reportFailure prints the verdict, shrinks the spec while it keeps
// failing the same way, and writes the minimized replayable spec file.
func reportFailure(i int, caseSeed int64, spec scenariogen.Spec, d *check.DiffResult, opt check.Options, out string) {
	fmt.Printf("FAIL case %d (seed %d):\n", i, caseSeed)
	for _, f := range d.Failures {
		fmt.Printf("  %s\n", f)
	}
	fmt.Printf("spec:\n%s", indent(scenariogen.Format(spec)))

	fmt.Println("shrinking...")
	failing := func(c scenariogen.Spec) bool {
		dd, err := check.RunDiff(c, opt)
		return err == nil && dd.Failed()
	}
	small := scenariogen.Shrink(spec, failing)
	fmt.Printf("minimized to %d ops, faults=%q:\n%s",
		len(small.Ops), small.Faults, indent(scenariogen.Format(small)))

	name := fmt.Sprintf("fail-seed%d.tcaspec", caseSeed)
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "tcafuzz:", err)
			return
		}
		name = filepath.Join(out, name)
	}
	if err := os.WriteFile(name, []byte(scenariogen.Format(small)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tcafuzz:", err)
		return
	}
	fmt.Printf("wrote %s (re-run with: tcafuzz -replay %s)\n", name, name)
}

// replayFile re-runs one committed spec file and reports its verdict.
func replayFile(path string, opt check.Options) int {
	text, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcafuzz:", err)
		return 2
	}
	spec, err := scenariogen.Parse(string(text))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcafuzz:", err)
		return 2
	}
	d, err := check.RunDiff(spec, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcafuzz:", err)
		return 2
	}
	if d.Failed() {
		fmt.Printf("FAIL %s:\n", path)
		for _, f := range d.Failures {
			fmt.Printf("  %s\n", f)
		}
		fmt.Printf("transcript:\n%s", indent(string(d.Faulty.Transcript)))
		return 1
	}
	fmt.Printf("PASS %s: determinism ok", path)
	if d.MemoryChecked {
		fmt.Printf(", faulty-vs-perfect memory identical")
	}
	fmt.Printf("\n%s", indent(string(d.Faulty.Transcript)))
	return 0
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
