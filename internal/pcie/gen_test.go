package pcie

import (
	"math"
	"testing"

	"tca/internal/units"
)

func TestGen2x8RawBandwidthIs4GBps(t *testing.T) {
	// §IV-A: "PCIe Gen2 uses a 5-GHz signal and provides 4 Gbytes/sec
	// with eight lanes due to 8b/10b encoding".
	got := Gen2x8.RawBandwidth()
	if got != 4*units.GBPerSec {
		t.Fatalf("Gen2 x8 raw bandwidth = %v, want 4GB/s", got)
	}
}

func TestEffectiveBandwidthMatchesPaperFormula(t *testing.T) {
	// §IV-A: 4 GB/s × 256/(256+16+2+4+1+1) = 3.66 GB/s.
	got := Gen2x8.EffectiveBandwidth(256)
	want := 4e9 * 256.0 / 280.0
	if math.Abs(got.GBps()-want/1e9) > 1e-9 {
		t.Fatalf("effective bandwidth = %v, want %.4f GB/s", got, want/1e9)
	}
	if got.GBps() < 3.65 || got.GBps() > 3.66 {
		t.Fatalf("effective bandwidth %v outside the paper's 3.66 GB/s figure", got)
	}
}

func TestTLPOverheadIs24Bytes(t *testing.T) {
	if TLPOverhead != 24 {
		t.Fatalf("TLPOverhead = %d, want 24 (16+2+4+1+1)", TLPOverhead)
	}
}

func TestGenerationRatesAndEncoding(t *testing.T) {
	cases := []struct {
		gen  Generation
		rate float64
		eff  float64
	}{
		{Gen1, 2.5e9, 0.8},
		{Gen2, 5.0e9, 0.8},
		{Gen3, 8.0e9, 128.0 / 130.0},
	}
	for _, c := range cases {
		if got := c.gen.TransferRate(); got != c.rate {
			t.Errorf("%v TransferRate = %v, want %v", c.gen, got, c.rate)
		}
		if got := c.gen.EncodingEfficiency(); math.Abs(got-c.eff) > 1e-12 {
			t.Errorf("%v EncodingEfficiency = %v, want %v", c.gen, got, c.eff)
		}
	}
}

func TestGen3x16BandwidthClass(t *testing.T) {
	// A Gen3 x16 GPU slot is ~15.75 GB/s.
	got := Gen3x16.RawBandwidth().GBps()
	if got < 15.7 || got > 15.8 {
		t.Fatalf("Gen3 x16 bandwidth = %v GB/s, want ~15.75", got)
	}
}

func TestLinkConfigValidate(t *testing.T) {
	valid := []LinkConfig{Gen2x8, {Gen2, 16}, {Gen3, 8}, {Gen1, 1}, {Gen3, 32}}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", c, err)
		}
	}
	invalid := []LinkConfig{{Gen2, 3}, {Gen2, 0}, {Generation(4), 8}, {Generation(0), 8}}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestLinkConfigString(t *testing.T) {
	if got := Gen2x8.String(); got != "Gen2 x8" {
		t.Fatalf("String() = %q, want %q", got, "Gen2 x8")
	}
}

func TestRoleString(t *testing.T) {
	if RoleRC.String() != "RC" || RoleEP.String() != "EP" {
		t.Fatalf("Role strings wrong: %v %v", RoleRC, RoleEP)
	}
}

func TestEffectiveBandwidthPanicsOnBadPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive max payload")
		}
	}()
	Gen2x8.EffectiveBandwidth(0)
}
