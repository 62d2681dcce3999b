package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"tca/internal/prof"
	"tca/internal/tcanet"
)

// Profiled engine-performance scenarios: one kernel run each on a fresh
// rig, optionally with every component registered with a profiler. With a
// nil profiler the engine runs completely uninstrumented — that
// configuration collects the committed baseline, so BENCH_PERF.json numbers
// carry no attribution overhead.

// PerfScenarioNames lists the profiled scenarios in run order.
var PerfScenarioNames = []string{"pingpong", "forward", "chain_dma"}

// perfRounds fixes the per-scenario repetition counts. They are large
// enough that per-run fixed costs (topology construction, first-event
// warmup) disappear from the events/sec figure, and small enough that the
// full suite stays under a second.
const (
	perfPingPongRounds = 200
	perfForwardStores  = 200
	perfChainDescs     = 64
)

// perfScenarios are the profiled scenarios:
//
//   - pingpong: perfPingPongRounds round trips over a 2-node ring, which
//     exercise the store, link, switch, chip-forward and poll paths on
//     every leg;
//   - forward: perfForwardStores poll-paced stores from node 0 to node 4
//     of an 8-node ring, each paying the full multi-hop forwarding path;
//   - chain_dma: one remote chained-DMA write of perfChainDescs × 4 KiB,
//     dominated by TLP issue and link drain events.
var perfScenarios = map[string]Scenario{
	"pingpong":  {Kernel: KernelPingPong, Nodes: 2, Src: 0, Dst: 1, Rounds: perfPingPongRounds},
	"forward":   {Kernel: KernelStoreStream, Nodes: 8, Src: 0, Dst: 4, Rounds: perfForwardStores},
	"chain_dma": {Kernel: KernelChainDMA, Nodes: 2, Src: 0, Dst: 1, Size: 4096, Count: perfChainDescs, Chains: 1},
}

// RunPerfScenario runs one named scenario (see perfScenarios) and returns
// its run statistics. Panics on an unknown name (the set is fixed by
// PerfScenarioNames).
func RunPerfScenario(name string, prm tcanet.Params, p *prof.Profiler) prof.RunStats {
	s, ok := perfScenarios[name]
	if !ok {
		panic(fmt.Sprintf("bench: unknown perf scenario %q", name))
	}
	_, res, err := s.Run(prm, Attach{Prof: p, Label: name})
	if err != nil {
		panic(err)
	}
	return res.Stats
}

// PerfBaselineSchema versions the BENCH_PERF.json layout.
const PerfBaselineSchema = "tca-perf-baseline/1"

// PerfFigure is one scenario's committed performance envelope. Events and
// QueueHighWater come from the deterministic simulation and must reproduce
// exactly; the remaining fields measure the host machine and are gated with
// generous tolerances (see Compare).
type PerfFigure struct {
	Events             uint64  `json:"events"`
	QueueHighWater     int     `json:"queue_high_water"`
	EventsPerSec       float64 `json:"events_per_sec"`
	AllocsPerEvent     float64 `json:"allocs_per_event"`
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event"`
	WallNS             int64   `json:"wall_ns"`
}

// PerfBaseline is the machine-readable engine-performance capture gated by
// the perf regression test, the analogue of BenchBaseline for host-side
// cost instead of simulated latency.
type PerfBaseline struct {
	Schema    string                `json:"schema"`
	Scenarios map[string]PerfFigure `json:"scenarios"`
}

// figureOf reduces run statistics to the committed envelope.
func figureOf(st prof.RunStats) PerfFigure {
	round := func(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }
	return PerfFigure{
		Events:             st.Events,
		QueueHighWater:     st.QueueHighWater,
		EventsPerSec:       round(st.EventsPerSec),
		AllocsPerEvent:     round(st.AllocsPerEvent),
		AllocBytesPerEvent: round(st.AllocBytesPerEvent),
		WallNS:             st.WallNS,
	}
}

// CollectPerfBaseline measures every scenario with a nil profiler (no
// attribution overhead) and returns the baseline to commit. Each scenario
// runs once unmeasured to warm lazy runtime state, then three measured
// times keeping the best host-side figures: the runtime's allocation
// counters are process-wide, so a single run can absorb background
// allocations that have nothing to do with the engine. Taking the minimum
// makes the figure comparable between a fresh tcabench process and a warm
// test binary.
func CollectPerfBaseline(prm tcanet.Params) PerfBaseline {
	b := PerfBaseline{Schema: PerfBaselineSchema, Scenarios: make(map[string]PerfFigure, len(PerfScenarioNames))}
	for _, name := range PerfScenarioNames {
		RunPerfScenario(name, prm, nil)
		fig := figureOf(RunPerfScenario(name, prm, nil))
		for i := 0; i < 2; i++ {
			again := figureOf(RunPerfScenario(name, prm, nil))
			if again.Events != fig.Events || again.QueueHighWater != fig.QueueHighWater {
				panic(fmt.Sprintf("bench: %s is nondeterministic: %+v vs %+v", name, fig, again))
			}
			if again.AllocsPerEvent < fig.AllocsPerEvent {
				fig.AllocsPerEvent = again.AllocsPerEvent
			}
			if again.AllocBytesPerEvent < fig.AllocBytesPerEvent {
				fig.AllocBytesPerEvent = again.AllocBytesPerEvent
			}
			if again.EventsPerSec > fig.EventsPerSec {
				fig.EventsPerSec = again.EventsPerSec
				fig.WallNS = again.WallNS
			}
		}
		b.Scenarios[name] = fig
	}
	return b
}

// WriteJSON emits the baseline as indented JSON.
func (b PerfBaseline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
