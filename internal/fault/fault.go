// Package fault is the fabric-wide fault injector: a seeded,
// schedule-deterministic source of link outages, bit errors, dropped and
// corrupted packets, lost completions and wedged DMA descriptors. PEACH2
// realizes PEARL — PCI Express Adaptive and *Reliable* Link — and the
// reliability machinery (DLL replay, completion timeouts, NIOS failover)
// only exercises under injected faults.
//
// Every decision is drawn from a single *rand.Rand seeded by the profile,
// and components consult the injector only from inside engine callbacks,
// so a given (profile, seed) pair perturbs a run the same way every time:
// two runs of the same -fault scenario are byte-identical. The nil
// *Injector is the disabled injector — every method no-ops — so a
// fault-free build takes exactly the legacy code path and schedules
// exactly the legacy event sequence.
package fault

import (
	"math/rand"

	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/units"
)

// DownWindow declares an outage of one named cable: the link blackholes
// every frame (and DLLP) arriving within [At, At+For). For == 0 means the
// cable never recovers — the cut-ring scenario of §V.
type DownWindow struct {
	// Link names the cable, matching the name the topology registered
	// with pcie.Link.EnableDLL ("2e" = the eastward cable out of node 2).
	Link string
	// At is when the outage starts, as sim time since run start.
	At units.Duration
	// For is the outage length; zero means permanent.
	For units.Duration
}

// Profile is a complete fault scenario. The zero Profile injects nothing.
type Profile struct {
	// Seed initializes the injector's random stream.
	Seed int64
	// BER is the per-bit error rate applied to every DLL-protected frame;
	// a hit is an LCRC failure, NAKed and replayed.
	BER float64
	// Drop is the per-TLP probability that the receiver swallows a frame
	// without acknowledging it (recovered by replay timeout).
	Drop float64
	// Corrupt is an additional flat per-TLP LCRC-failure probability on
	// top of BER.
	Corrupt float64
	// LoseCpl is the probability that the root complex accepts a read
	// but never returns its completion (recovered by the DMAC's
	// completion timeout).
	LoseCpl float64
	// Stuck wedges descriptor StuckIndex of every DMA chain: its work is
	// never generated and the chain watchdog must abort the chain.
	Stuck      bool
	StuckIndex int
	// Down lists the scheduled link outages.
	Down []DownWindow
}

// Counts is a snapshot of everything the injector and the recovery
// machinery recorded.
type Counts struct {
	LinkDown        uint64 // links declared dead (replay exhaustion)
	Replays         uint64 // DLL go-back-N replay rounds
	ReplayExhausted uint64 // replay budgets exhausted
	Failovers       uint64 // management-plane reroutes completed
	TLPsCorrupted   uint64 // frames failing the LCRC check
	TLPsDropped     uint64 // frames swallowed by the receiver
	LostCompletions uint64 // read completions the RC never sent
	ReadRetries     uint64 // DMAC read retransmissions
	ChainErrors     uint64 // DMA chains aborted with an error
	StuckDescs      uint64 // descriptors wedged by injection
}

// Injector draws fault decisions and counts both injections and the
// recovery actions they trigger. Components hold a possibly-nil *Injector
// and call it unconditionally; the nil receiver is the disabled injector.
type Injector struct {
	prof   Profile
	rng    *rand.Rand
	counts Counts

	// Metric handles (nil until Instrument; obsv counters are nil-safe).
	mLinkDown  *obsv.Counter
	mReplays   *obsv.Counter
	mExhausted *obsv.Counter
	mFailovers *obsv.Counter
	mCorrupted *obsv.Counter
	mDropped   *obsv.Counter
	mLostCpls  *obsv.Counter
	mRetries   *obsv.Counter
	mChainErrs *obsv.Counter
	mStuck     *obsv.Counter
}

// New builds an injector for the profile, with its random stream seeded
// from Profile.Seed.
func New(prof Profile) *Injector {
	return &Injector{prof: prof, rng: rand.New(rand.NewSource(prof.Seed))}
}

// Enabled reports whether fault injection is attached at all — the gate
// components use to avoid scheduling recovery timers on fault-free runs.
func (j *Injector) Enabled() bool {
	if j == nil {
		return false
	}
	return true
}

// Counts returns the current fault/recovery counters.
func (j *Injector) Counts() Counts {
	if j == nil {
		return Counts{}
	}
	return j.counts
}

// Instrument registers the fault.* counters so injected faults and the
// recovery they exercise show up in every metrics snapshot.
func (j *Injector) Instrument(set *obsv.Set) {
	if j == nil {
		return
	}
	reg := set.Registry()
	const comp = "injector"
	j.mLinkDown = reg.Counter("fault.link_down", comp)
	j.mReplays = reg.Counter("fault.replays", comp)
	j.mExhausted = reg.Counter("fault.replay_exhausted", comp)
	j.mFailovers = reg.Counter("fault.failovers", comp)
	j.mCorrupted = reg.Counter("fault.tlps_corrupted", comp)
	j.mDropped = reg.Counter("fault.tlps_dropped", comp)
	j.mLostCpls = reg.Counter("fault.lost_completions", comp)
	j.mRetries = reg.Counter("fault.read_retries", comp)
	j.mChainErrs = reg.Counter("fault.chain_errors", comp)
	j.mStuck = reg.Counter("fault.stuck_descriptors", comp)
}

// LinkDown reports whether the named cable is inside an outage window at
// time now. Pure query — no randomness, no counting — so the DLL can ask
// at every frame and DLLP arrival.
func (j *Injector) LinkDown(link string, now sim.Time) bool {
	if j == nil {
		return false
	}
	for _, w := range j.prof.Down {
		if w.Link != link {
			continue
		}
		start := sim.Time(0).Add(w.At)
		if now < start {
			continue
		}
		if w.For == 0 || now < start.Add(w.For) {
			return true
		}
	}
	return false
}

// CorruptTLP decides whether a frame of the given wire size fails its
// LCRC check: a per-bit BER draw plus the flat per-TLP corruption rate.
func (j *Injector) CorruptTLP(wire units.ByteSize) bool {
	if j == nil || (j.prof.BER == 0 && j.prof.Corrupt == 0) {
		return false
	}
	p := j.prof.Corrupt
	if j.prof.BER > 0 {
		bits := wire.Bytes() * 8
		pBER := 1 - pow1m(j.prof.BER, bits)
		p = p + pBER - p*pBER
	}
	if j.rng.Float64() < p {
		j.counts.TLPsCorrupted++
		j.mCorrupted.Inc()
		return true
	}
	return false
}

// pow1m computes (1-ber)^bits without math.Pow (integer exponent keeps it
// cheap and bit-stable across platforms).
func pow1m(ber, bits float64) float64 {
	base := 1 - ber
	out := 1.0
	for n := int(bits); n > 0; n >>= 1 {
		if n&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}

// DropTLP decides whether the receiver silently swallows a frame.
func (j *Injector) DropTLP() bool {
	if j == nil || j.prof.Drop == 0 {
		return false
	}
	if j.rng.Float64() < j.prof.Drop {
		j.counts.TLPsDropped++
		j.mDropped.Inc()
		return true
	}
	return false
}

// LoseCompletion decides whether the root complex never answers a read.
func (j *Injector) LoseCompletion() bool {
	if j == nil || j.prof.LoseCpl == 0 {
		return false
	}
	if j.rng.Float64() < j.prof.LoseCpl {
		j.counts.LostCompletions++
		j.mLostCpls.Inc()
		return true
	}
	return false
}

// StuckDescriptor reports whether chain-descriptor index i is wedged.
func (j *Injector) StuckDescriptor(i int) bool {
	if j == nil || !j.prof.Stuck || i != j.prof.StuckIndex {
		return false
	}
	j.counts.StuckDescs++
	j.mStuck.Inc()
	return true
}

// NoteReplay counts one DLL go-back-N replay round.
func (j *Injector) NoteReplay() {
	if j == nil {
		return
	}
	j.counts.Replays++
	j.mReplays.Inc()
}

// NoteReplayExhausted counts one direction exhausting its replay budget.
func (j *Injector) NoteReplayExhausted() {
	if j == nil {
		return
	}
	j.counts.ReplayExhausted++
	j.mExhausted.Inc()
}

// NoteLinkDead counts one cable declared dead.
func (j *Injector) NoteLinkDead() {
	if j == nil {
		return
	}
	j.counts.LinkDown++
	j.mLinkDown.Inc()
}

// NoteFailover counts one completed management-plane reroute.
func (j *Injector) NoteFailover() {
	if j == nil {
		return
	}
	j.counts.Failovers++
	j.mFailovers.Inc()
}

// NoteReadRetry counts one DMAC read retransmission.
func (j *Injector) NoteReadRetry() {
	if j == nil {
		return
	}
	j.counts.ReadRetries++
	j.mRetries.Inc()
}

// NoteChainError counts one DMA chain aborted with an error.
func (j *Injector) NoteChainError() {
	if j == nil {
		return
	}
	j.counts.ChainErrors++
	j.mChainErrs.Inc()
}
