package bench

import (
	"fmt"

	"tca/internal/pcie"
)

// TableI reproduces "Specifications of the HA-PACS base cluster".
func TableI() *Table {
	t := &Table{
		ID:      "TableI",
		Title:   "Specifications of the HA-PACS base cluster",
		XLabel:  "item",
		Columns: []string{"value"},
	}
	rows := [][2]string{
		{"CPU", "Intel Xeon-E5 2670 2.6 GHz × two sockets (eight cores + 20-Mbyte cache) / socket"},
		{"Memory", "DDR3 1600 MHz × 4 ch, 128 Gbytes"},
		{"Peak performance (CPU)", "332.8 GFlops"},
		{"GPU", "NVIDIA Tesla M2090 1.3 GHz × 4"},
		{"GPU memory", "GDDR5 6 Gbytes / GPU"},
		{"Peak performance (GPU)", "2660 GFlops"},
		{"InfiniBand", "Mellanox Connect-X3 Dual-port QDR"},
		{"Number of nodes", "268"},
		{"Storage", "Lustre File System 504 Tbytes"},
		{"Interconnect", "InfiniBand QDR 288 ports switch × 2"},
		{"Total peak performance", "802 TFlops"},
		{"Number of racks", "26"},
		{"Maximum power consumption", "408 kW"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	t.AddNote("operational February 2012; ranked 41st on the June 2012 Top500 at 1.04 GFlops/W")
	return t
}

// TableII reproduces "Test environment for preliminary performance
// evaluation".
func TableII() *Table {
	t := &Table{
		ID:      "TableII",
		Title:   "Test environment for the preliminary performance evaluation",
		XLabel:  "item",
		Columns: []string{"value"},
	}
	rows := [][2]string{
		{"CPU", "Xeon-E5 2670 2.6 GHz × 2"},
		{"Memory", "DDR3 1600 MHz × 4 ch, 128 Gbytes"},
		{"Motherboard", "(a) SuperMicro X9DRG-QF / (b) Intel S2600IP"},
		{"GPU", "NVIDIA K20 2496 cores, 705 MHz"},
		{"GPU memory", "GDDR5 2600 MHz, 5 Gbytes"},
		{"PEACH2 prototype board", "16 layers (main) + eight layers (sub)"},
		{"FPGA", "Altera Stratix IV GX 530/290, 1932 pin (EP4SGX{530,290}NF45C2N)"},
		{"PEACH2 logic", "version 20121112"},
		{"OS", "Linux, CentOS 6.3 (kernel 2.6.32-279)"},
		{"GPU driver", "NVIDIA-Linux-x86_64-304.{51,64}"},
		{"Programming environment", "CUDA 5.0"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	t.AddNote("drivers: the PEACH2 driver (board control) and the P2P driver (GPUDirect RDMA pinning)")
	return t
}

// TheoreticalPeak reproduces the §IV-A peak-bandwidth arithmetic from the
// simulator's own PCIe constants.
func TheoreticalPeak() *Table {
	t := &Table{
		ID:      "TheoreticalPeak",
		Title:   "PCIe Gen2 x8 theoretical peak (the §IV-A formula)",
		XLabel:  "quantity",
		Columns: []string{"value"},
	}
	cfg := pcie.Gen2x8
	raw := cfg.RawBandwidth()
	eff := cfg.EffectiveBandwidth(pcie.DefaultMaxPayload)
	t.AddRow("signalling", fmt.Sprintf("%.1f GT/s × %d lanes, 8b/10b", cfg.Gen.TransferRate()/1e9, cfg.Lanes))
	t.AddRow("raw bandwidth", fmt.Sprintf("%.2f GB/s", raw.GBps()))
	t.AddRow("max payload", pcie.DefaultMaxPayload.String())
	t.AddRow("per-TLP overhead", fmt.Sprintf("%dB TL hdr + %dB seq + %dB LCRC + %dB framing = %dB",
		pcie.TLHeaderBytes, pcie.DLLSeqBytes, pcie.DLLLCRCBytes, pcie.PHYFrameBytes, pcie.TLPOverhead))
	t.AddRow("effective peak", fmt.Sprintf("%.2f GB/s = 4 GB/s × 256/(256+16+2+4+1+1)", eff.GBps()))
	t.AddNote("paper: 4 Gbytes/sec × 256/280 = 3.66 Gbytes/sec; measured chained write ≈ 93%% of it")
	return t
}
