// Command tcapath is the latency-anatomy report: it runs a fleet of traced
// transactions (multi-round ping-pong or back-to-back chained DMA), charges
// every picosecond of each transaction to one bucket — software, wire,
// switch, DMA engine, or a blocked-on wait cause — and prints the per-stage
// budget table, the fleet percentile ladder (p50/p95/p99/p999), the slowest
// transactions with their blocking causes, and (for ping-pong) the
// measured-vs-analytical model comparison.
//
//	tcapath -scenario pingpong -nodes 4 -src 0 -dst 2 -rounds 8
//	tcapath -scenario chain-dma -size 4096 -count 8 -chains 4
//	tcapath -scenario pingpong -json report.json -check   # CI gate
package main

import (
	"flag"
	"fmt"
	"os"

	"tca/internal/bench"
	"tca/internal/obsv/critpath"
	"tca/internal/tcanet"
	"tca/internal/units"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scenario = flag.String("scenario", "pingpong", "scenario: pingpong | chain-dma")
		nodes    = flag.Int("nodes", 4, "ring size (pingpong)")
		src      = flag.Int("src", 0, "source node (pingpong)")
		dst      = flag.Int("dst", 2, "destination node (pingpong)")
		rounds   = flag.Int("rounds", 8, "ping-pong round trips")
		size     = flag.Int("size", 4096, "DMA block size in bytes (chain-dma)")
		count    = flag.Int("count", 8, "descriptors per chain (chain-dma)")
		chains   = flag.Int("chains", 4, "back-to-back chains (chain-dma)")
		topK     = flag.Int("top", 5, "slowest transactions to list")
		jsonPath = flag.String("json", "", "write the machine-readable budget report to this path (\"-\" = stdout)")
		check    = flag.Bool("check", false, "exit nonzero if any transaction has unattributed or unbalanced time")
	)
	flag.Parse()

	blk := units.ByteSize(*size)
	scenarios := map[string]bench.Scenario{
		"pingpong": {Kernel: bench.KernelPingPong, Nodes: *nodes, Src: *src, Dst: *dst, Rounds: *rounds,
			Title: fmt.Sprintf("ping-pong node%d<->node%d (%d-node ring, %d rounds)", *src, *dst, *nodes, *rounds)},
		"chain-dma": {Kernel: bench.KernelChainDMA, Nodes: 2, Src: 0, Dst: 1, Size: blk, Count: *count, Chains: *chains,
			Title: fmt.Sprintf("chain-DMA %d×(%d×%v) node0->node1", *chains, *count, blk)},
	}
	sc, ok := scenarios[*scenario]
	if !ok {
		fmt.Fprintf(os.Stderr, "tcapath: unknown scenario %q\n", *scenario)
		return 2
	}
	prm := tcanet.DefaultParams
	if err := sc.Validate(prm); err != nil {
		fmt.Fprintln(os.Stderr, "tcapath:", err)
		return 2
	}

	r, res, err := sc.Run(prm, bench.Attach{Obsv: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcapath:", err)
		return 1
	}
	fleet := critpath.Analyze(sc.Title, r.Set.Recorder(), res.Txns)
	var model []critpath.ModelDiff
	if sc.Kernel == bench.KernelPingPong {
		m := bench.PingPongModel(prm)
		model = m.CompareFleet(fleet, bench.RingForwardHops(sc.Nodes, sc.Src, sc.Dst))
	}

	if fleet.Evicted > 0 {
		fmt.Fprintf(os.Stderr, "tcapath: WARNING: span ring evicted %d events — budgets may be truncated\n", fleet.Evicted)
	}

	fmt.Printf("scenario: %s\n\n", fleet.Scenario)
	critpath.WriteBudgetTable(os.Stdout, fleet)
	fmt.Println()
	critpath.WriteLadder(os.Stdout, fleet)
	fmt.Println()
	critpath.WriteTopK(os.Stdout, fleet, *topK)
	if len(model) > 0 {
		fmt.Println()
		critpath.WriteModel(os.Stdout, model)
	}

	if *jsonPath != "" {
		report := critpath.ExportReport(fleet, model, *topK)
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcapath:", err)
				return 1
			}
			defer f.Close()
			out = f
		} else {
			fmt.Println()
		}
		if err := report.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "tcapath:", err)
			return 1
		}
		if *jsonPath != "-" {
			fmt.Printf("\nbudget report: %s\n", *jsonPath)
		}
	}

	if *check {
		bad := 0
		for _, b := range fleet.Budgets {
			if !b.Consistent() {
				fmt.Fprintf(os.Stderr, "tcapath: txn %d: buckets sum to %v, end-to-end %v, unattributed %v\n",
					b.Txn, b.Sum(), b.Total, b.Buckets[critpath.BucketUnattributed])
				bad++
			}
		}
		if fleet.Evicted > 0 {
			fmt.Fprintln(os.Stderr, "tcapath: check failed: span ring evicted events")
			return 1
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "tcapath: check failed: %d/%d transactions inconsistent\n", bad, len(fleet.Budgets))
			return 1
		}
		fmt.Printf("\ncheck: all %d transactions partition exactly, nothing unattributed\n", len(fleet.Budgets))
	}
	return 0
}
