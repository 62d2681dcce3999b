package memory

import (
	"bytes"
	"testing"
	"testing/quick"

	"tca/internal/units"
)

func TestRAMWriteRead(t *testing.T) {
	r := NewRAM(64 * units.KiB)
	data := []byte("tightly coupled accelerators")
	if err := r.Write(100, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(100, units.ByteSize(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestRAMUnwrittenReadsZero(t *testing.T) {
	r := NewRAM(1 * units.MiB)
	got, err := r.ReadBytes(12345, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestRAMCrossPageAccess(t *testing.T) {
	r := NewRAM(64 * units.KiB)
	data := make([]byte, 10000) // crosses two page boundaries
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := r.Write(4000, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(4000, units.ByteSize(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round-trip corrupted data")
	}
}

func TestRAMPartialPageReadAfterSparseWrite(t *testing.T) {
	r := NewRAM(64 * units.KiB)
	// Write only in page 1; a read spanning pages 0–2 must see zeros
	// around the written bytes.
	if err := r.Write(5000, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(0, 12*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		switch i {
		case 5000:
			if b != 0xAA {
				t.Fatalf("byte 5000 = %#x", b)
			}
		case 5001:
			if b != 0xBB {
				t.Fatalf("byte 5001 = %#x", b)
			}
		default:
			if b != 0 {
				t.Fatalf("byte %d = %#x, want 0", i, b)
			}
		}
	}
}

func TestRAMBoundsChecks(t *testing.T) {
	r := NewRAM(4 * units.KiB)
	if err := r.Write(4096, []byte{1}); err == nil {
		t.Fatal("write past end accepted")
	}
	if err := r.Write(4000, make([]byte, 200)); err == nil {
		t.Fatal("straddling write accepted")
	}
	if err := r.Read(5000, make([]byte, 1)); err == nil {
		t.Fatal("read past end accepted")
	}
	if err := r.Write(0, make([]byte, 4096)); err != nil {
		t.Fatalf("exact-fit write rejected: %v", err)
	}
}

func TestRAMSparseness(t *testing.T) {
	// A 512 GiB BAR window must not allocate 512 GiB.
	r := NewRAM(512 * units.GiB)
	if err := r.Write(uint64(256*units.GiB), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := units.ByteSize(len(r.pages) * pageSize); got > 8*units.KiB {
		t.Fatalf("resident bytes = %v after a 1-byte write into 512GiB", got)
	}
	if r.size != 512*units.GiB {
		t.Fatalf("size = %v", r.size)
	}
}

func TestNewRAMRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRAM(0) did not panic")
		}
	}()
	NewRAM(0)
}

// Property: any sequence of non-overlapping writes reads back exactly.
func TestQuickRAMRoundTrip(t *testing.T) {
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		r := NewRAM(16 * units.MiB)
		o := uint64(off) % (16*1024*1024 - uint64(len(data)))
		if err := r.Write(o, data); err != nil {
			return false
		}
		got, err := r.ReadBytes(o, units.ByteSize(len(data)))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: later writes win where they overlap earlier ones.
func TestQuickRAMOverwrite(t *testing.T) {
	f := func(a, b []byte, gap uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		r := NewRAM(1 * units.MiB)
		if r.Write(1000, a) != nil || r.Write(1000+uint64(gap), b) != nil {
			return false
		}
		want := make([]byte, 1000+len(a)+len(b)+256)
		copy(want[1000:], a)
		copy(want[1000+int(gap):], b)
		got, err := r.ReadBytes(0, units.ByteSize(len(want)))
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
