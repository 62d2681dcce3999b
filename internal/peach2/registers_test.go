package peach2

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"tca/internal/pcie"
	"tca/internal/units"
)

func TestRegisterWriteWrongSizePanics(t *testing.T) {
	f := newChipFixture(t)
	base := f.chip.plan.Internal.Base
	defer func() {
		if recover() == nil {
			t.Fatal("4-byte register write did not panic (registers are 8-byte words)")
		}
	}()
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: base + pcie.Addr(RegDMATable), Data: make([]byte, 4)})
	f.eng.Run()
}

func TestUndefinedRegisterWritePanics(t *testing.T) {
	f := newChipFixture(t)
	base := f.chip.plan.Internal.Base
	defer func() {
		if recover() == nil {
			t.Fatal("undefined register write did not panic")
		}
	}()
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: base + 0x48, Data: make([]byte, 8)})
	f.eng.Run()
}

func TestUndefinedRegisterReadPanics(t *testing.T) {
	f := newChipFixture(t)
	base := f.chip.plan.Internal.Base
	defer func() {
		if recover() == nil {
			t.Fatal("undefined register read did not panic")
		}
	}()
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: base + 0x48, ReadLen: 8, Tag: 1, Requester: 9})
	f.eng.Run()
}

func TestChipIDRegisterReadsBack(t *testing.T) {
	f := newChipFixture(t)
	base := f.chip.plan.Internal.Base
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: base + pcie.Addr(RegChipID), ReadLen: 8, Tag: 2, Requester: 9})
	f.eng.Run()
	if v := binary.LittleEndian.Uint64(f.hostd.got[0].Data); v != uint64(f.chip.ID()) {
		t.Fatalf("chip ID register = %d, want %d", v, f.chip.ID())
	}
}

func TestDMAStatusRegisterTracksBusy(t *testing.T) {
	f := newChipFixture(t)
	if f.chip.dmac.status() != 0 {
		t.Fatal("DMAC should be idle at start")
	}
	// Status word bit 8 mirrors DMAC busy.
	if f.chip.nios.statusWord()&(1<<8) != 0 {
		t.Fatal("status word claims DMAC busy while idle")
	}
	if err := f.chip.InternalMemory().Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// StartImmediate flips the state until completion.
	f.chip.DMAC().StartImmediate(f.eng.Now(), Descriptor{Kind: DescWrite, Len: 64, Src: 0, Dst: 0x9000})
	if f.chip.dmac.status() != 1 {
		t.Fatal("DMAC not busy right after StartImmediate")
	}
	if f.chip.nios.statusWord()&(1<<8) == 0 {
		t.Fatal("status word missed DMAC busy")
	}
	f.eng.Run()
	if f.chip.dmac.status() != 0 {
		t.Fatal("DMAC still busy after chain drained")
	}
}

func TestStartImmediateWhileBusyPanics(t *testing.T) {
	f := newChipFixture(t)
	if err := f.chip.InternalMemory().Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.chip.DMAC().StartImmediate(f.eng.Now(), Descriptor{Kind: DescWrite, Len: 64, Src: 0, Dst: 0x9000})
	defer func() {
		if recover() == nil {
			t.Fatal("second StartImmediate did not panic")
		}
	}()
	f.chip.DMAC().StartImmediate(f.eng.Now(), Descriptor{Kind: DescWrite, Len: 64, Src: 0, Dst: 0xA000})
}

func TestChipStatsCounters(t *testing.T) {
	f := newChipFixture(t)
	remote := pcie.Addr(0x80_0000_0000 + uint64(64<<30) + 0x40)
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: remote, Data: []byte{1}})
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: f.chip.intMemGlobal(0), Data: []byte{2}})
	f.eng.Run()
	st := f.chip.Stats()
	if st.Forwarded[PortE] != 1 {
		t.Fatalf("Forwarded[E] = %d", st.Forwarded[PortE])
	}
	if st.IntWrites != 1 {
		t.Fatalf("IntWrites = %d", st.IntWrites)
	}
	if st.DMAChains != 0 || st.DMATLPs != 0 {
		t.Fatal("phantom DMA activity in stats")
	}
}

func TestIntMemGlobalRoundTrip(t *testing.T) {
	f := newChipFixture(t)
	a := f.chip.intMemGlobal(0x1234)
	if !f.chip.plan.Internal.Contains(a) {
		t.Fatal("IntMemGlobal outside the internal block")
	}
	off := uint64(a-f.chip.plan.Internal.Base) - IntMemOffset
	if off != 0x1234 {
		t.Fatalf("round trip offset = %#x", off)
	}
}

func TestInternalMemorySize(t *testing.T) {
	f := newChipFixture(t)
	if f.chip.InternalMemory().Size() != DefaultParams.InternalMemSize {
		t.Fatalf("internal memory size %v", f.chip.InternalMemory().Size())
	}
	if DefaultParams.InternalMemSize < 64*units.MiB {
		t.Fatal("internal memory must hold the bandwidth experiments' staging data")
	}
}

func TestNIOSConsole(t *testing.T) {
	f := newChipFixture(t)
	// Generate some traffic first.
	remote := pcie.Addr(0x80_0000_0000 + uint64(64<<30) + 0x40)
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: remote, Data: []byte{1}})
	f.eng.Run()

	out, err := f.chip.NIOS().execute("status")
	if err != nil || !strings.Contains(out, "dmac=idle") {
		t.Fatalf("status = %q, %v", out, err)
	}
	out, err = f.chip.NIOS().execute("counters")
	if err != nil || !strings.Contains(out, "E=1") {
		t.Fatalf("counters = %q, %v", out, err)
	}
	out, err = f.chip.NIOS().execute("routes")
	if err != nil || !strings.Contains(out, "-> E") {
		t.Fatalf("routes = %q, %v", out, err)
	}
	if _, err := f.chip.NIOS().execute("reboot"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if out, err := f.chip.NIOS().execute("help"); err != nil || out == "" {
		t.Fatal("help broken")
	}
	// The log command reflects recorded events once monitoring ran.
	f.chip.NIOS().Start(units.Microsecond)
	f.eng.RunFor(3 * units.Microsecond)
	out, err = f.chip.NIOS().execute("log")
	if err != nil || !strings.Contains(out, "link up") {
		t.Fatalf("log = %q, %v", out, err)
	}
}

// TestNIOSLogEvictsOldest: past maxEvents entries the management log keeps
// only the newest ones, oldest first, in both Events and the console.
func TestNIOSLogEvictsOldest(t *testing.T) {
	f := newChipFixture(t)
	n := f.chip.NIOS()
	for i := 0; i < 300; i++ {
		n.NoteFailover(i)
	}
	want := func(i int) string {
		return fmt.Sprintf("failover: routes reprogrammed around cut ring link %d", 300-maxEvents+i)
	}
	evs := n.Events()
	if len(evs) != maxEvents {
		t.Fatalf("Events() holds %d entries, want %d", len(evs), maxEvents)
	}
	for i, e := range evs {
		if e.What != want(i) {
			t.Fatalf("Events()[%d] = %q, want %q", i, e.What, want(i))
		}
	}
	out, err := n.execute("log")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != maxEvents {
		t.Fatalf("log has %d lines, want %d", len(lines), maxEvents)
	}
	for i, line := range lines {
		if !strings.HasSuffix(line, "] "+want(i)) {
			t.Fatalf("log line %d = %q, want it to end in %q", i, line, want(i))
		}
	}
}
