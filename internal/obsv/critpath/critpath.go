// Package critpath is the causal latency-anatomy engine over the span
// stream: it classifies every hop of a traced transaction into exactly one
// latency bucket — software, wire, switch, DMA engine, or a blocked-on wait
// cause — so a transaction's per-bucket budget sums tick-exactly to its
// end-to-end latency, the decomposition the paper's Fig. 9–10 argument and
// the APEnet+ injection/routing/serialization budgets are built on.
// Fleet-wide aggregation adds per-bucket totals and shares across all
// transactions of a scenario plus a percentile ladder (p50/p95/p99/p999)
// over their end-to-end latencies.
package critpath

import (
	"sort"

	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/stats"
	"tca/internal/units"
)

// Bucket is one latency-anatomy charge account. Every hop of a breakdown
// is charged to exactly one bucket, so the per-bucket sums partition the
// end-to-end latency.
type Bucket uint8

// Buckets. The wait buckets mirror the obsv.Cause taxonomy.
const (
	// BucketSoftware: CPU stores, poll-loop detection, doorbell writes,
	// IRQ delivery, and driver completion handling.
	BucketSoftware Bucket = iota
	// BucketWire: link serialization plus propagation (internal traces
	// and external cables).
	BucketWire
	// BucketSwitch: host PCIe switch crossbars plus the PEACH2
	// route/convert/egress pipeline.
	BucketSwitch
	// BucketDMAEngine: DMAC descriptor fetch and TLP issue work.
	BucketDMAEngine
	// BucketWaitCredits: blocked on an exhausted link credit pool.
	BucketWaitCredits
	// BucketWaitReplay: blocked on DLL replay (full replay buffer or
	// retransmission rounds).
	BucketWaitReplay
	// BucketWaitRouteBusy: blocked behind earlier packets on a busy
	// egress wire.
	BucketWaitRouteBusy
	// BucketWaitChainSer: blocked in the DMAC issue pipeline behind the
	// chain's earlier TLPs.
	BucketWaitChainSer
	// BucketWaitTag: blocked on outstanding-read tag exhaustion.
	BucketWaitTag
	// BucketWaitRead: blocked on DRAM read service (and read retries).
	BucketWaitRead
	// BucketWaitLinkDown: blocked on a dead link until failover.
	BucketWaitLinkDown
	// BucketUnattributed: a hop the classifier could not place — always
	// zero on a healthy trace, and gated to zero in CI.
	BucketUnattributed
	// NumBuckets sizes per-bucket arrays.
	NumBuckets
)

// String names the bucket.
func (b Bucket) String() string {
	switch b {
	case BucketSoftware:
		return "software"
	case BucketWire:
		return "wire"
	case BucketSwitch:
		return "switch"
	case BucketDMAEngine:
		return "dma-engine"
	case BucketWaitCredits:
		return "wait:credits-exhausted"
	case BucketWaitReplay:
		return "wait:dll-replay"
	case BucketWaitRouteBusy:
		return "wait:route-busy"
	case BucketWaitChainSer:
		return "wait:chain-serialization"
	case BucketWaitTag:
		return "wait:tag-wait"
	case BucketWaitRead:
		return "wait:outstanding-read"
	case BucketWaitLinkDown:
		return "wait:link-down"
	case BucketUnattributed:
		return "unattributed"
	default:
		return "Bucket(?)"
	}
}

// IsWait reports whether the bucket is a blocked-on wait cause.
func (b Bucket) IsWait() bool {
	return b >= BucketWaitCredits && b <= BucketWaitLinkDown
}

// waitBucket maps a wait cause to its bucket.
func waitBucket(c obsv.Cause) Bucket {
	switch c {
	case obsv.CauseCredits:
		return BucketWaitCredits
	case obsv.CauseReplay:
		return BucketWaitReplay
	case obsv.CauseRouteBusy:
		return BucketWaitRouteBusy
	case obsv.CauseChainSerialization:
		return BucketWaitChainSer
	case obsv.CauseTagWait:
		return BucketWaitTag
	case obsv.CauseOutstandingRead:
		return BucketWaitRead
	case obsv.CauseLinkDown:
		return BucketWaitLinkDown
	default:
		return BucketUnattributed
	}
}

// sourceBucket charges a hop by its origin event — used when the
// destination stage (link-tx, queue-enter) marks a handoff whose cost
// belongs to whatever produced the packet.
func sourceBucket(e obsv.Event) Bucket {
	switch e.Stage {
	case obsv.StageCPUStore, obsv.StagePollSeen, obsv.StageIRQ,
		obsv.StageChainDone, obsv.StageDoorbell:
		return BucketSoftware
	case obsv.StageDMAFetch, obsv.StageDMAIssue:
		return BucketDMAEngine
	case obsv.StagePortIn, obsv.StageRoute, obsv.StageConvert,
		obsv.StagePortOut, obsv.StageSwitch:
		return BucketSwitch
	default:
		// link-tx, queue-exit, host-write/read, flush-ack: the packet is
		// already in flight — wire pacing.
		return BucketWire
	}
}

// Classify charges one hop to its bucket. The destination stage decides
// (the hop's time was spent *reaching* it); ambiguous destinations fall
// back on the origin. Queue-exit hops are pure wait time charged to the
// blocking cause. Every stage maps somewhere, so a healthy trace never
// produces BucketUnattributed.
func Classify(h obsv.Hop) Bucket {
	switch h.To.Stage {
	case obsv.StageQueueExit:
		return waitBucket(h.To.Cause)
	case obsv.StageQueueEnter, obsv.StageLinkTx:
		return sourceBucket(h.From)
	case obsv.StagePortIn:
		return BucketWire
	case obsv.StageSwitch:
		if h.From.Stage == obsv.StageCPUStore {
			return BucketSoftware // uncached store reaching the fabric
		}
		return BucketWire
	case obsv.StageRoute, obsv.StageConvert, obsv.StagePortOut:
		return BucketSwitch
	case obsv.StageHostWrite, obsv.StageHostRead:
		if h.From.Stage == obsv.StageSwitch {
			return BucketSwitch // crossbar forward into the root complex
		}
		return BucketWire
	case obsv.StagePollSeen, obsv.StageIRQ, obsv.StageChainDone, obsv.StageDoorbell,
		obsv.StageCPUStore:
		return BucketSoftware
	case obsv.StageDMAFetch, obsv.StageDMAIssue, obsv.StageChainError:
		return BucketDMAEngine
	case obsv.StageFlushAck:
		if h.From.Stage == obsv.StageLinkTx {
			return BucketWire
		}
		return BucketSwitch
	case obsv.StageReplay:
		return BucketWaitReplay
	case obsv.StageLinkDown, obsv.StageFailover:
		return BucketWaitLinkDown
	case obsv.StageReadRetry:
		return BucketWaitRead
	default:
		return BucketUnattributed
	}
}

// Budget is one transaction's latency anatomy: how much of its end-to-end
// latency each bucket accounts for.
type Budget struct {
	Txn     uint64
	Buckets [NumBuckets]units.Duration
	// Waits is the observed queue-wait time per wait bucket: the summed
	// durations of matched queue-enter → queue-exit pairs, keyed by cause
	// and component. Unlike Buckets it does not partition Total — a wait
	// overlapped by concurrent traffic of the same transaction (a DMA
	// chain's later TLP queued while earlier TLPs stream) still counts in
	// full here, while the critical-path charge in Buckets only keeps the
	// un-overlapped tail.
	Waits [NumBuckets]units.Duration
	// Total is the transaction's end-to-end latency (last event − first
	// event). By construction the buckets sum to it exactly.
	Total  units.Duration
	Events int
}

// BudgetOf classifies one transaction's events.
func BudgetOf(events []obsv.Event) Budget {
	b := Budget{Events: len(events)}
	if len(events) > 0 {
		b.Txn = events[0].Txn
	}
	hops := obsv.Breakdown(events)
	for _, h := range hops {
		b.Buckets[Classify(h)] += h.Dur
	}
	b.Total = obsv.TotalLatency(hops)
	b.observeWaits(events)
	return b
}

// waitKey matches queue-enter/queue-exit pairs: same cause at the same
// component.
type waitKey struct {
	bucket Bucket
	where  string
}

// observeWaits accumulates the matched enter/exit pair durations into
// Waits. Pairs match FIFO per (cause, component); an exit without a
// recorded enter (the enter fell off the ring) is dropped.
func (b *Budget) observeWaits(events []obsv.Event) {
	sorted := append([]obsv.Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	var pending map[waitKey][]sim.Time
	for _, e := range sorted {
		switch e.Stage {
		case obsv.StageQueueEnter:
			if pending == nil {
				pending = make(map[waitKey][]sim.Time)
			}
			k := waitKey{waitBucket(e.Cause), e.Where}
			pending[k] = append(pending[k], e.At)
		case obsv.StageQueueExit:
			k := waitKey{waitBucket(e.Cause), e.Where}
			if q := pending[k]; len(q) > 0 {
				b.Waits[k.bucket] += e.At.Sub(q[0])
				pending[k] = q[1:]
			}
		}
	}
}

// Sum adds the per-bucket charges back together.
func (b Budget) Sum() units.Duration {
	var total units.Duration
	for _, d := range b.Buckets {
		total += d
	}
	return total
}

// Consistent reports the acceptance property: the buckets partition the
// end-to-end latency tick-exactly and nothing is unattributed.
func (b Budget) Consistent() bool {
	return b.Sum() == b.Total && b.Buckets[BucketUnattributed] == 0
}

// Wait sums the blocked-on buckets — the queue-bound share the parallel-DES
// work wants to know about.
func (b Budget) Wait() units.Duration {
	var total units.Duration
	for i := Bucket(0); i < NumBuckets; i++ {
		if i.IsWait() {
			total += b.Buckets[i]
		}
	}
	return total
}

// DominantWait reports the transaction's dominant blocking cause and its
// magnitude — the larger of the critical-path charge and the observed
// queue-wait per bucket — or (BucketUnattributed, 0) when the transaction
// never blocked.
func (b Budget) DominantWait() (Bucket, units.Duration) {
	best, bestDur := BucketUnattributed, units.Duration(0)
	for i := Bucket(0); i < NumBuckets; i++ {
		if !i.IsWait() {
			continue
		}
		d := b.Buckets[i]
		if b.Waits[i] > d {
			d = b.Waits[i]
		}
		if d > bestDur {
			best, bestDur = i, d
		}
	}
	return best, bestDur
}

// Fleet aggregates the latency anatomy of every traced transaction of a
// scenario.
type Fleet struct {
	Scenario string
	Budgets  []Budget
	// Totals is the per-bucket sum across all transactions; GrandTotal is
	// the sum of every transaction's end-to-end latency. WaitTotals sums
	// the observed queue-wait durations (Budget.Waits) across the fleet.
	Totals     [NumBuckets]units.Duration
	WaitTotals [NumBuckets]units.Duration
	GrandTotal units.Duration
	// Ladder summarizes the end-to-end latencies in microseconds —
	// p50 (median) / p95 / p99 / p999 over the fleet.
	Ladder stats.Summary
	// Evicted and Recorded report the span ring's health: a nonzero
	// eviction count means early budgets may be truncated.
	Evicted  uint64
	Recorded uint64
}

// Analyze builds the fleet anatomy for the given transactions out of the
// recorder's retained events.
func Analyze(scenario string, rec *obsv.Recorder, txns []uint64) *Fleet {
	f := &Fleet{
		Scenario: scenario,
		Evicted:  rec.Evicted(),
		Recorded: rec.Total(),
	}
	us := make([]float64, 0, len(txns))
	for _, txn := range txns {
		b := BudgetOf(rec.TxnEvents(txn))
		f.Budgets = append(f.Budgets, b)
		for i, d := range b.Buckets {
			f.Totals[i] += d
		}
		for i, d := range b.Waits {
			f.WaitTotals[i] += d
		}
		f.GrandTotal += b.Total
		us = append(us, b.Total.Microseconds())
	}
	if len(us) > 0 {
		f.Ladder = stats.Summarize(us)
	}
	return f
}

// Consistent reports whether every transaction's budget is consistent.
func (f *Fleet) Consistent() bool {
	for _, b := range f.Budgets {
		if !b.Consistent() {
			return false
		}
	}
	return true
}

// TopK returns the k slowest transactions, slowest first (ties broken by
// transaction ID for determinism); k ≤ 0 returns them all.
func (f *Fleet) TopK(k int) []Budget {
	out := append([]Budget(nil), f.Budgets...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Txn < out[j].Txn
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
