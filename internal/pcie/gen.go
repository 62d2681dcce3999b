// Package pcie models the PCI Express transport the TCA architecture is
// built on: link generations and widths, Transaction Layer Packets (TLPs),
// point-to-point links with serialization and credit-based flow control,
// address ranges and maps, switches, and completion tag tracking.
//
// The model is functional — Memory Write TLPs carry real bytes to real
// simulated memories, Memory Reads produce Completions with Data — and
// timed: every packet spends wire time derived from the link's generation,
// lane count, encoding efficiency, and per-packet protocol overhead, using
// exactly the arithmetic of §IV-A of the paper:
//
//	Gen2 x8 = 5 GHz × 8 lanes × 8b/10b = 4 Gbytes/sec raw,
//	effective = 4 GB/s × 256/(256+16+2+4+1+1) = 3.66 Gbytes/sec.
package pcie

import (
	"fmt"

	"tca/internal/units"
)

// Generation identifies a PCI Express generation (lane speed + encoding).
type Generation int

// Supported PCIe generations.
const (
	Gen1 Generation = 1 // 2.5 GT/s, 8b/10b
	Gen2 Generation = 2 // 5.0 GT/s, 8b/10b — PEACH2's hard-IP ports
	Gen3 Generation = 3 // 8.0 GT/s, 128b/130b — host CPU lanes on HA-PACS
)

// String names the generation like the paper ("Gen2").
func (g Generation) String() string { return fmt.Sprintf("Gen%d", int(g)) }

// TransferRate reports the per-lane signalling rate in transfers per second
// (1 GT/s = 1e9).
func (g Generation) TransferRate() float64 {
	switch g {
	case Gen1:
		return 2.5e9
	case Gen2:
		return 5.0e9
	case Gen3:
		return 8.0e9
	default:
		panic(fmt.Sprintf("pcie: unknown generation %d", int(g)))
	}
}

// EncodingEfficiency reports the fraction of raw bits that carry data after
// line coding: 8b/10b for Gen1/2, 128b/130b for Gen3.
func (g Generation) EncodingEfficiency() float64 {
	switch g {
	case Gen1, Gen2:
		return 8.0 / 10.0
	case Gen3:
		return 128.0 / 130.0
	default:
		panic(fmt.Sprintf("pcie: unknown generation %d", int(g)))
	}
}

// LinkConfig describes a link's generation and width ("Gen2 x8").
type LinkConfig struct {
	Gen   Generation
	Lanes int
}

// Common configurations in the paper.
var (
	// Gen2x8 is the configuration of all four PEACH2 ports: 4 GB/s raw.
	Gen2x8 = LinkConfig{Gen: Gen2, Lanes: 8}
	// Gen3x16 is a GPU slot.
	Gen3x16 = LinkConfig{Gen: Gen3, Lanes: 16}
)

// Validate reports whether the configuration is a legal PCIe link.
func (c LinkConfig) Validate() error {
	switch c.Gen {
	case Gen1, Gen2, Gen3:
	default:
		return fmt.Errorf("pcie: invalid generation %d", int(c.Gen))
	}
	switch c.Lanes {
	case 1, 2, 4, 8, 12, 16, 32:
		return nil
	default:
		return fmt.Errorf("pcie: invalid lane count x%d", c.Lanes)
	}
}

// String formats like "Gen2 x8".
func (c LinkConfig) String() string { return fmt.Sprintf("%v x%d", c.Gen, c.Lanes) }

// RawBandwidth reports the post-encoding byte rate of the link: the "4
// Gbytes/sec" figure the paper quotes for Gen2 x8. Each transfer carries one
// bit per lane; encoding efficiency removes the 8b/10b or 128b/130b tax.
func (c LinkConfig) RawBandwidth() units.Bandwidth {
	bitsPerSec := c.Gen.TransferRate() * float64(c.Lanes) * c.Gen.EncodingEfficiency()
	return units.Bandwidth(bitsPerSec / 8)
}

// EffectiveBandwidth reports the peak payload rate once every MaxPayload
// bytes pay the per-TLP protocol overhead — the paper's 3.66 GB/s formula.
func (c LinkConfig) EffectiveBandwidth(maxPayload units.ByteSize) units.Bandwidth {
	if maxPayload <= 0 {
		panic(fmt.Sprintf("pcie: non-positive max payload %d", maxPayload))
	}
	frac := maxPayload.Bytes() / (maxPayload + TLPOverhead).Bytes()
	return units.Bandwidth(c.RawBandwidth().BytesPerSec() * frac)
}

// Role distinguishes the two ends of a PCIe link. A link must join exactly
// one Root Complex (or switch downstream port) to one Endpoint (or switch
// upstream port); two RCs cannot talk directly — the reason PEACH2 exists.
type Role int

// Link roles.
const (
	RoleRC Role = iota // Root Complex side (or downstream switch port)
	RoleEP             // Endpoint side (or upstream switch port)
)

// String names the role as the paper abbreviates it.
func (r Role) String() string {
	switch r {
	case RoleRC:
		return "RC"
	case RoleEP:
		return "EP"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}
