package check

import (
	"slices"
	"strings"
	"testing"

	"tca/internal/sim"
)

func hasViolation(l *Ledger, rule string) bool {
	for _, v := range l.Violations() {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// TestLedgerHappyPath: born then delivered is clean and audited clean.
func TestLedgerHappyPath(t *testing.T) {
	l := NewLedger()
	payload := []byte{1, 2, 3}
	lid := l.Born(0, "MWr", 0x100, payload, "link:a")
	if lid == 0 {
		t.Fatal("Born returned the reserved zero LID")
	}
	l.Delivered(10, lid, 0x100, payload, "sink")
	sum := l.Audit(20)
	if len(l.Violations()) != 0 {
		t.Fatalf("violations on happy path: %v", l.Violations())
	}
	if sum.Born != 1 || sum.Delivered != 1 || sum.HarmfulDrops != 0 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestLedgerCatchesSilentLoss: a packet never reaching a terminal state
// is the lost-without-attribution violation.
func TestLedgerCatchesSilentLoss(t *testing.T) {
	l := NewLedger()
	l.Born(0, "MWr", 0x100, []byte{1}, "link:a")
	l.Audit(50)
	if !hasViolation(l, "lost-without-attribution") {
		t.Fatalf("silent loss not flagged: %v", l.Violations())
	}
}

// TestLedgerCatchesCorruption: delivery with different bytes than birth.
func TestLedgerCatchesCorruption(t *testing.T) {
	l := NewLedger()
	lid := l.Born(0, "MWr", 0x100, []byte{1, 2, 3}, "link:a")
	l.Delivered(10, lid, 0x100, []byte{1, 2, 4}, "sink")
	if !hasViolation(l, "payload-corrupted") {
		t.Fatalf("corruption not flagged: %v", l.Violations())
	}
}

// TestLedgerAllowsReaddressing: the PEACH2 conversion table rewrites
// global addresses to local ones in flight (§III-E) — a different
// delivery address with intact payload is not a violation.
func TestLedgerAllowsReaddressing(t *testing.T) {
	l := NewLedger()
	lid := l.Born(0, "MWr", 0x100, []byte{1}, "link:a")
	l.Delivered(10, lid, 0x200, []byte{1}, "sink")
	if len(l.Violations()) != 0 {
		t.Fatalf("readdressed delivery flagged: %v", l.Violations())
	}
}

// TestLedgerCatchesDuplicates: two deliveries with no salvage between.
func TestLedgerCatchesDuplicates(t *testing.T) {
	l := NewLedger()
	lid := l.Born(0, "MWr", 0x100, []byte{1}, "link:a")
	l.Delivered(10, lid, 0x100, []byte{1}, "sink")
	l.Delivered(11, lid, 0x100, []byte{1}, "sink")
	if !hasViolation(l, "duplicate-delivery") {
		t.Fatalf("duplicate not flagged: %v", l.Violations())
	}
}

// TestLedgerSalvageDuplicateIsLegal: delivered, then the unacknowledged
// copy is salvaged (parked), re-injected (unparked), and lands again with
// identical bytes — the one legal duplicate, counted as dupSalvage.
func TestLedgerSalvageDuplicateIsLegal(t *testing.T) {
	l := NewLedger()
	p := []byte{9, 9}
	lid := l.Born(0, "MWr", 0x100, p, "link:a")
	l.Delivered(10, lid, 0x100, p, "sink")
	l.Parked(12, lid, "peach2-1")
	l.Unparked(20, lid, "peach2-1")
	l.Delivered(30, lid, 0x100, p, "sink")
	sum := l.Audit(40)
	if len(l.Violations()) != 0 {
		t.Fatalf("legal salvage duplicate flagged: %v", l.Violations())
	}
	if sum.DupSalvage != 1 || sum.Delivered != 1 {
		t.Fatalf("summary %+v, want DupSalvage=1 Delivered=1", sum)
	}
}

// TestLedgerSalvageDuplicateDropIsBenign: the salvaged copy of a
// delivered packet that cannot be re-routed is dropped without data loss.
func TestLedgerSalvageDuplicateDropIsBenign(t *testing.T) {
	l := NewLedger()
	p := []byte{7}
	lid := l.Born(0, "MWr", 0x100, p, "link:a")
	l.Delivered(10, lid, 0x100, p, "sink")
	l.Parked(12, lid, "peach2-1")
	l.Dropped(20, lid, "peach2-1", "no route after failover")
	sum := l.Audit(40)
	if len(l.Violations()) != 0 {
		t.Fatalf("benign drop flagged: %v", l.Violations())
	}
	if sum.BenignDrops != 1 || sum.HarmfulDrops != 0 {
		t.Fatalf("summary %+v, want one benign drop", sum)
	}
}

// TestLedgerAttributedLoss: dropping an undelivered packet is harmful but
// attributed — conservation holds, recovery failed.
func TestLedgerAttributedLoss(t *testing.T) {
	l := NewLedger()
	lid := l.Born(0, "MWr", 0x100, []byte{1}, "link:a")
	l.Parked(5, lid, "peach2-0")
	l.Dropped(9, lid, "peach2-0", "no route after failover")
	sum := l.Audit(40)
	if len(l.Violations()) != 0 {
		t.Fatalf("attributed loss flagged as violation: %v", l.Violations())
	}
	if sum.HarmfulDrops != 1 {
		t.Fatalf("summary %+v, want HarmfulDrops=1", sum)
	}
}

// TestLedgerStaleCompletionBenign: the loser of a completion retry race.
func TestLedgerStaleCompletionBenign(t *testing.T) {
	l := NewLedger()
	lid := l.Born(0, "CplD", 0, []byte{1, 2}, "link:a")
	l.Dropped(9, lid, "peach2-0", "stale completion after chain abort")
	sum := l.Audit(40)
	if len(l.Violations()) != 0 {
		t.Fatalf("stale completion flagged: %v", l.Violations())
	}
	if sum.BenignDrops != 1 || sum.HarmfulDrops != 0 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestLedgerDoubleDropAndAfterlife: terminal states are terminal.
func TestLedgerDoubleDropAndAfterlife(t *testing.T) {
	l := NewLedger()
	lid := l.Born(0, "MWr", 0x100, []byte{1}, "link:a")
	l.Parked(2, lid, "c")
	l.Dropped(3, lid, "c", "no route after failover")
	l.Dropped(4, lid, "c", "no route after failover")
	if !hasViolation(l, "double-drop") {
		t.Fatalf("double drop not flagged: %v", l.Violations())
	}
	l2 := NewLedger()
	lid2 := l2.Born(0, "MWr", 0x100, []byte{1}, "link:a")
	l2.Parked(2, lid2, "c")
	l2.Dropped(3, lid2, "c", "no route after failover")
	l2.Delivered(5, lid2, 0x100, []byte{1}, "sink")
	if !hasViolation(l2, "delivered-after-drop") {
		t.Fatalf("delivery after drop not flagged: %v", l2.Violations())
	}
}

// TestLedgerParkedAtQuiesceIsSalvage: still-parked packets are salvaged,
// not violations — and the unknown-LID guard fires for unborn packets.
func TestLedgerParkedAtQuiesce(t *testing.T) {
	l := NewLedger()
	lid := l.Born(0, "MWr", 0x100, []byte{1}, "link:a")
	l.Parked(5, lid, "peach2-0")
	sum := l.Audit(40)
	if len(l.Violations()) != 0 {
		t.Fatalf("parked-at-quiesce flagged: %v", l.Violations())
	}
	if sum.ParkedAtQuiesce != 1 {
		t.Fatalf("summary %+v", sum)
	}
	l.Delivered(50, 999, 0, nil, "sink")
	if !hasViolation(l, "unknown-lid") {
		t.Fatal("unknown LID not flagged")
	}
}

// TestViolationString pins the rendering the fuzzer prints.
func TestViolationString(t *testing.T) {
	v := Violation{At: sim.Time(5), LID: 3, Rule: "double-drop", Where: "peach2-0", Detail: "x"}
	if !strings.Contains(v.String(), "double-drop") || !strings.Contains(v.String(), "peach2-0") {
		t.Fatalf("unhelpful violation string %q", v)
	}
}

// bornLedger returns a ledger that has born n packets, so LIDs 1..n are
// issued and LID n+1 is not.
func bornLedger(n int) *Ledger {
	l := NewLedger()
	for i := 0; i < n; i++ {
		l.Born(0, "MWr", 0x100, []byte{byte(i)}, "link:a")
	}
	return l
}

// TestLedgerLIDBounds: every lookup treats LID 0 and the LID after the
// last birth as unknown, and the two LIDs that straddle the first block
// boundary (1024 in block 0, 1025 in block 1) as the packets they are.
func TestLedgerLIDBounds(t *testing.T) {
	const born = blockLen + 1
	hooks := []struct {
		name string
		call func(l *Ledger, lid uint64)
		want tlpState
	}{
		{"Delivered", func(l *Ledger, lid uint64) { l.Delivered(1, lid, 0x100, nil, "sink") }, stDelivered},
		{"Dropped", func(l *Ledger, lid uint64) { l.Dropped(1, lid, "sink", "no route") }, stDropped},
		{"Parked", func(l *Ledger, lid uint64) { l.Parked(1, lid, "chip") }, stParked},
		{"Unparked", func(l *Ledger, lid uint64) {
			if e := l.entry(lid); e != nil {
				e.state = stParked
			}
			l.Unparked(1, lid, "chip")
		}, stInFlight},
	}
	for _, h := range hooks {
		t.Run(h.name, func(t *testing.T) {
			l := bornLedger(born)
			for _, lid := range []uint64{0, born + 1} {
				h.call(l, lid)
			}
			vs := l.Violations()
			if len(vs) != 2 || vs[0].Rule != "unknown-lid" || vs[0].LID != 0 ||
				vs[1].Rule != "unknown-lid" || vs[1].LID != born+1 {
				t.Fatalf("out-of-range LIDs: %v", vs)
			}
			for _, lid := range []uint64{blockLen, blockLen + 1} {
				h.call(l, lid)
				if e := l.entry(lid); e.state != h.want {
					t.Errorf("LID %d state %d, want %d", lid, e.state, h.want)
				}
			}
			if len(l.Violations()) != 2 {
				t.Fatalf("in-range LIDs flagged: %v", l.Violations()[2:])
			}
		})
	}
}

// TestLedgerAuditOrderAcrossBlocks: Audit reports lost packets in LID
// order, across block boundaries.
func TestLedgerAuditOrderAcrossBlocks(t *testing.T) {
	l := bornLedger(2*blockLen + 100)
	lost := []uint64{3, blockLen, blockLen + 1, 2 * blockLen, 2*blockLen + 2}
	for lid := uint64(1); lid <= 2*blockLen+100; lid++ {
		if !slices.Contains(lost, lid) {
			l.Delivered(1, lid, 0x100, nil, "sink")
		}
	}
	l.Audit(2)
	var got []uint64
	for _, v := range l.Violations() {
		if v.Rule != "lost-without-attribution" {
			t.Fatalf("unexpected violation %v", v)
		}
		got = append(got, v.LID)
	}
	if !slices.Equal(got, lost) {
		t.Fatalf("lost LIDs %v, want %v", got, lost)
	}
}

// TestLedgerCatchesEveryByteFlip: changing any one byte of a payload is
// payload-corrupted, for a payload of whole words and for one with a
// tail shorter than a word.
func TestLedgerCatchesEveryByteFlip(t *testing.T) {
	for _, n := range []int{4096, 4093} {
		payload := fillBytes(1, 0, n)
		l := NewLedger()
		bad := make([]byte, n)
		for i := range payload {
			copy(bad, payload)
			bad[i] ^= byte(i%255 + 1)
			l.Delivered(1, l.Born(0, "MWr", 0x100, payload, "link:a"), 0x100, bad, "sink")
		}
		corrupted := 0
		for _, v := range l.Violations() {
			if v.Rule == "payload-corrupted" {
				corrupted++
			}
		}
		if corrupted != n {
			t.Errorf("%d-byte payload: %d of %d single-byte flips caught", n, corrupted, n)
		}
	}
}

// TestLedgerBornAmortizedAllocs: a birth allocates only when it opens a
// new block, so 1024 births cost one allocation (plus the rare growth
// of the block list, which the integer average absorbs).
func TestLedgerBornAmortizedAllocs(t *testing.T) {
	l := NewLedger()
	payload := make([]byte, 256)
	allocs := testing.AllocsPerRun(64, func() {
		for i := 0; i < blockLen; i++ {
			l.Born(0, "MWr", 0x100, payload, "link:a")
		}
	})
	if allocs > 1 {
		t.Fatalf("Born allocates %.0f times per %d births, want at most 1", allocs, blockLen)
	}
}

// TestLedgerDeliveredZeroAlloc: a clean delivery allocates nothing.
func TestLedgerDeliveredZeroAlloc(t *testing.T) {
	l := NewLedger()
	payload := make([]byte, 256)
	for i := 0; i < 101; i++ { // AllocsPerRun calls once more to warm up
		l.Born(0, "MWr", 0x100, payload, "link:a")
	}
	lid := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		lid++
		l.Delivered(1, lid, 0x100, payload, "sink")
	})
	if allocs != 0 || len(l.Violations()) != 0 {
		t.Fatalf("Delivered allocates %.1f per call (violations %v)", allocs, l.Violations())
	}
}
