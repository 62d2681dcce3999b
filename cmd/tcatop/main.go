// Command tcatop is the fabric's top(1): it runs a sampled scenario,
// prints the hottest telemetry series interval by interval, and closes
// with the bottleneck-attribution verdict — which resource (ring link,
// DMAC engine, or host read path) limited the run, with evidence rows.
//
//	tcatop                                    # link-bound forward-DMA demo
//	tcatop -scenario forward -nodes 8 -dst 4  # longer arc
//	tcatop -scenario pingpong -rounds 50      # latency-bound contrast case
//	tcatop -top 12 -rows 30 -interval 2       # wider table, coarser ticks
package main

import (
	"flag"
	"fmt"
	"os"

	"tca/internal/bench"
	"tca/internal/obsv"
	"tca/internal/prof"
	"tca/internal/tcanet"
	"tca/internal/units"
)

func main() {
	var (
		scenario = flag.String("scenario", "forward", "scenario: forward | pingpong")
		nodes    = flag.Int("nodes", 4, "ring size")
		src      = flag.Int("src", 0, "source node")
		dst      = flag.Int("dst", 2, "destination node")
		size     = flag.Int("size", 4096, "DMA block size in bytes (forward)")
		count    = flag.Int("count", 255, "DMA descriptor count (forward)")
		rounds   = flag.Int("rounds", 20, "ping-pong rounds (pingpong)")
		interval = flag.Float64("interval", 1, "sampling interval in simulated µs")
		top      = flag.Int("top", 8, "number of hottest series columns to print")
		rows     = flag.Int("rows", 20, "maximum table rows (sampling ticks are strided to fit)")
		profile  = flag.Bool("prof", false, "attach the engine self-profiler: close with the events/sec headline and the components ranked by host time")
	)
	flag.Parse()

	iv := units.Duration(*interval * float64(units.Microsecond))
	blk := units.ByteSize(*size)
	scenarios := map[string]bench.Scenario{
		"forward": {Kernel: bench.KernelChainDMA, Nodes: *nodes, Src: *src, Dst: *dst, Size: blk, Count: *count, Chains: 1,
			Title: fmt.Sprintf("forward DMA %d×%v node%d->node%d (%d-node ring), sampled every %v",
				*count, blk, *src, *dst, *nodes, iv)},
		"pingpong": {Kernel: bench.KernelPingPong, Nodes: *nodes, Src: *src, Dst: *dst, Rounds: *rounds,
			Title: fmt.Sprintf("PIO ping-pong ×%d node%d<->node%d (%d-node ring), sampled every %v",
				*rounds, *src, *dst, *nodes, iv)},
	}
	sc, ok := scenarios[*scenario]
	if !ok {
		fmt.Fprintf(os.Stderr, "tcatop: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if err := sc.Validate(tcanet.DefaultParams); err != nil {
		fmt.Fprintln(os.Stderr, "tcatop:", err)
		os.Exit(2)
	}
	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "tcatop: -interval must be positive")
		os.Exit(2)
	}

	var p *prof.Profiler
	if *profile {
		p = prof.New(prof.Options{})
	}
	r, res, err := sc.Run(tcanet.DefaultParams,
		bench.Attach{Obsv: true, Prof: p, Label: "telemetry-" + *scenario, Interval: iv})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcatop:", err)
		os.Exit(1)
	}

	fmt.Printf("scenario: %s\n", sc.Title)
	if res.Moved > 0 {
		bw := units.Rate(res.Moved, res.EndToEnd)
		fmt.Printf("moved %v in %v (%.3f GB/s)\n", res.Moved, res.EndToEnd, bw.GBps())
	} else {
		fmt.Printf("elapsed %v\n", res.EndToEnd)
	}
	fmt.Println()

	tl := r.Set.Sampler().Timeline()
	hot := obsv.TopSeries(tl.Series(), *top)
	if len(hot) == 0 {
		fmt.Println("no samples recorded (scenario shorter than one interval?)")
	} else {
		obsv.WriteSeriesTable(os.Stdout, hot, *rows)
		fmt.Println()
	}
	obsv.Attribute(r.Snapshot(), tl).WriteReport(os.Stdout)

	if p != nil {
		fmt.Println()
		fmt.Println(res.Stats.Headline())
		p.WriteTable(os.Stdout, *top)
	}
}
