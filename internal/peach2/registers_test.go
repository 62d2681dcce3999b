package peach2

import (
	"encoding/binary"
	"testing"

	"tca/internal/obsv"
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
	if n := f.count("port_tlps_out", "", obsv.Label{Key: "port", Value: "E"}); n != 1 {
		t.Fatalf("port_tlps_out{port=E} = %d", n)
	}
	if n := f.count("internal_writes", ""); n != 1 {
		t.Fatalf("internal_writes = %d", n)
	}
	if f.count("dma_chains", "/dmac") != 0 || f.count("dma_write_tlps", "/dmac") != 0 {
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
	// The last configured byte is writable, the next is not.
	mem, size := f.chip.InternalMemory(), uint64(DefaultParams.InternalMemSize)
	if err := mem.Write(size-1, []byte{1}); err != nil {
		t.Fatalf("last internal-memory byte: %v", err)
	}
	if err := mem.Write(size, []byte{1}); err == nil {
		t.Fatalf("internal memory accepted a write past %v", DefaultParams.InternalMemSize)
	}
	if DefaultParams.InternalMemSize < 64*units.MiB {
		t.Fatal("internal memory must hold the bandwidth experiments' staging data")
	}
}
