package bench

import (
	"testing"

	"tca/internal/tcanet"
	"tca/internal/units"
)

// TestScenarioValidateChainBounds: a chain at each hardware limit is
// valid and one step past it is not — 256 descriptors, a block of the
// whole PEACH2 internal memory, a span of exactly one host block — and a
// negative stride is rejected.
func TestScenarioValidateChainBounds(t *testing.T) {
	prm := tcanet.DefaultParams
	mem := prm.Chip.InternalMemSize
	plan, err := tcanet.NewPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	block := plan.BlockSize()
	dma := func(nodes int, size units.ByteSize, count int, stride units.ByteSize) Scenario {
		return Scenario{Kernel: KernelChainDMA, Nodes: nodes, Src: 0, Dst: 1, Size: size, Count: count, Stride: stride, Chains: 1}
	}
	for _, tc := range []struct {
		s  Scenario
		ok bool
	}{
		{dma(2, 4096, 256, 0), true},
		{dma(2, 4096, 257, 0), false},
		{dma(2, mem, 1, 0), true},
		{dma(2, mem+1, 1, 0), false},
		{dma(16, 4096, 32, block/32), true},
		{dma(16, 4096, 32, block/32+1), false},
		{dma(16, mem, 256, 0), false},
		{dma(2, 4096, 8, -4096), false},
	} {
		if err := tc.s.Validate(prm); (err == nil) != tc.ok {
			t.Errorf("size %v count %d stride %v on %d nodes: Validate = %v, want ok=%v",
				tc.s.Size, tc.s.Count, tc.s.Stride, tc.s.Nodes, err, tc.ok)
		}
	}
}
