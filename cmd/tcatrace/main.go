// Command tcatrace inspects the fabric with the observability layer: it
// runs a small scenario with transaction tracing on and prints each traced
// span's hop-by-hop latency breakdown (the Fig. 9–10 decomposition view)
// plus a metrics snapshot.
//
//	tcatrace -scenario pingpong -nodes 4 -src 0 -dst 2
//	tcatrace -scenario forward -nodes 8 -dst 3 -events
//	tcatrace -scenario dma -size 4096 -count 8 -metrics json
//	tcatrace -scenario pingpong -critpath            # per-span latency budgets
//	tcatrace -scenario dma -json                     # machine-readable output
//	tcatrace -scenario pingpong -perfetto trace.json # open in ui.perfetto.dev
//	tcatrace -scenario pingpong -fault linkdown:1e:12us -seed 7 -rounds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tca/internal/bench"
	"tca/internal/obsv"
	"tca/internal/obsv/critpath"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// jsonSpan is one span in tcatrace's machine-readable output.
type jsonSpan struct {
	Txn    uint64       `json:"txn"`
	Events []obsv.Event `json:"events"`
	Hops   []jsonHop    `json:"hops"`
	// Budget is the span's critical-path latency anatomy in nanoseconds
	// per bucket; it sums to total_ns exactly.
	Budget  map[string]float64 `json:"budget_ns"`
	TotalNS float64            `json:"total_ns"`
}

// jsonHop is one breakdown hop in machine-readable form.
type jsonHop struct {
	From   string  `json:"from"`
	To     string  `json:"to"`
	Bucket string  `json:"bucket"`
	DurNS  float64 `json:"dur_ns"`
}

// jsonTrace is the -json document.
type jsonTrace struct {
	Schema     string     `json:"schema"`
	Scenario   string     `json:"scenario"`
	EndToEndNS float64    `json:"end_to_end_ns"`
	Evicted    uint64     `json:"spans_evicted"`
	Spans      []jsonSpan `json:"spans"`
}

// traceJSON freezes a traced run into its -json document.
func traceJSON(scenario string, r *bench.Rig, res *bench.Result, spans []bench.Span) jsonTrace {
	out := jsonTrace{
		Schema:     "tca-trace/1",
		Scenario:   scenario,
		EndToEndNS: res.EndToEnd.Nanoseconds(),
		Evicted:    r.Set.Recorder().Evicted(),
	}
	for _, sp := range spans {
		b := critpath.BudgetOf(sp.Events)
		js := jsonSpan{Txn: sp.Txn, Events: sp.Events, TotalNS: sp.Total.Nanoseconds(),
			Budget: map[string]float64{}}
		for i := critpath.Bucket(0); i < critpath.NumBuckets; i++ {
			if d := b.Buckets[i]; d != 0 {
				js.Budget[i.String()] = d.Nanoseconds()
			}
		}
		for _, h := range sp.Hops {
			js.Hops = append(js.Hops, jsonHop{
				From:   h.From.Where + ":" + h.From.Stage.String(),
				To:     h.To.Where + ":" + h.To.Stage.String(),
				Bucket: critpath.Classify(h).String(),
				DurNS:  h.Dur.Nanoseconds(),
			})
		}
		out.Spans = append(out.Spans, js)
	}
	return out
}

func main() {
	var (
		scenario = flag.String("scenario", "pingpong", "scenario: pingpong | forward | dma")
		nodes    = flag.Int("nodes", 4, "ring size (pingpong/forward)")
		src      = flag.Int("src", 0, "source node")
		dst      = flag.Int("dst", 1, "destination node")
		size     = flag.Int("size", 4096, "DMA block size in bytes (dma)")
		count    = flag.Int("count", 8, "DMA descriptor count (dma)")
		metrics  = flag.String("metrics", "table", "metrics snapshot format: table | json | prom | none")
		events   = flag.Bool("events", false, "also dump each span's raw events")
		perfetto = flag.String("perfetto", "", "write the spans as a Chrome trace_event file to this path")
		faultStr = flag.String("fault", "", "fault scenario spec, e.g. linkdown:1e:12us or ber:1e-7,drop:0.01 (pingpong only)")
		seed     = flag.Int64("seed", 1, "fault injector seed (with -fault)")
		rounds   = flag.Int("rounds", 10, "ping-pong rounds (with -fault)")
		asJSON   = flag.Bool("json", false, "emit the spans, hops, and budgets as one JSON document instead of tables")
		crit     = flag.Bool("critpath", false, "also print each span's critical-path latency budget")
	)
	flag.Parse()

	switch *metrics {
	case "table", "json", "prom", "none":
	default:
		fmt.Fprintf(os.Stderr, "tcatrace: unknown metrics format %q\n", *metrics)
		os.Exit(2)
	}

	// Only a faulted ping-pong runs more than one round.
	pingRounds := 1
	pingTitle := fmt.Sprintf("ping-pong node%d<->node%d (%d-node ring)", *src, *dst, *nodes)
	if *faultStr != "" {
		pingRounds = *rounds
		pingTitle = fmt.Sprintf("fault ping-pong node%d<->node%d ×%d (%d-node ring, %s, seed %d)",
			*src, *dst, *rounds, *nodes, *faultStr, *seed)
	}
	blk := units.ByteSize(*size)
	scenarios := map[string]bench.Scenario{
		"pingpong": {Kernel: bench.KernelPingPong, Nodes: *nodes, Src: *src, Dst: *dst, Rounds: pingRounds,
			Title: pingTitle},
		"forward": {Kernel: bench.KernelStoreStream, Nodes: *nodes, Src: *src, Dst: *dst, Rounds: 1,
			Title: fmt.Sprintf("forward node%d->node%d (%d-node ring)", *src, *dst, *nodes)},
		"dma": {Kernel: bench.KernelChainDMA, Nodes: 2, Src: 0, Dst: 1, Size: blk, Count: *count, Stride: 2 * blk, Chains: 1,
			Title: fmt.Sprintf("block-stride DMA %d×%v (stride %v) node0->node1", *count, blk, 2*blk)},
	}
	sc, ok := scenarios[*scenario]
	if !ok {
		fmt.Fprintf(os.Stderr, "tcatrace: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if err := sc.Validate(tcanet.DefaultParams); err != nil {
		fmt.Fprintln(os.Stderr, "tcatrace:", err)
		os.Exit(2)
	}
	if *faultStr != "" && sc.Kernel != bench.KernelPingPong {
		fmt.Fprintf(os.Stderr, "tcatrace: -fault is only supported for -scenario pingpong (got %q)\n", *scenario)
		os.Exit(2)
	}

	r, res, err := sc.Run(tcanet.DefaultParams, bench.Attach{Obsv: true, Fault: *faultStr, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcatrace:", err)
		os.Exit(1)
	}
	spans := r.Spans(res.Txns)

	if evicted := r.Set.Recorder().Evicted(); evicted > 0 {
		fmt.Fprintf(os.Stderr, "tcatrace: WARNING: span ring evicted %d events — breakdowns may be truncated\n", evicted)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(traceJSON(sc.Title, r, res, spans)); err != nil {
			fmt.Fprintln(os.Stderr, "tcatrace:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("scenario: %s\n\n", sc.Title)
	for i, sp := range spans {
		fmt.Printf("span %d (txn %d), %d events, hop sum %v:\n", i, sp.Txn, len(sp.Events), sp.Total)
		obsv.WriteBreakdown(os.Stdout, sp.Hops)
		if *crit {
			b := critpath.BudgetOf(sp.Events)
			fmt.Println("  latency budget:")
			for j := critpath.Bucket(0); j < critpath.NumBuckets; j++ {
				if d := b.Buckets[j]; d != 0 {
					fmt.Printf("    %-26s %12v\n", j, d)
				}
			}
			if !b.Consistent() {
				fmt.Println("    WARNING: budget does not partition the hop sum")
			}
		}
		if *events {
			for _, ev := range sp.Events {
				fmt.Printf("    %12v  %s\n", units.Duration(ev.At), ev)
			}
		}
		fmt.Println()
	}
	fmt.Printf("end-to-end: %v\n", res.EndToEnd)

	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcatrace:", err)
			os.Exit(1)
		}
		werr := obsv.WritePerfetto(f, r.Set.Recorder().Events(), nil)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "tcatrace:", werr)
			os.Exit(1)
		}
		fmt.Printf("perfetto trace: %s (open in ui.perfetto.dev)\n", *perfetto)
	}

	snap := r.Snapshot()
	switch *metrics {
	case "none":
	case "table":
		fmt.Println("\nmetrics:")
		snap.WriteTable(os.Stdout)
	case "json":
		fmt.Println()
		if err := snap.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tcatrace:", err)
			os.Exit(1)
		}
	case "prom":
		fmt.Println()
		snap.WritePrometheus(os.Stdout)
	}
}
