package bench

import (
	"errors"
	"fmt"

	"tca/internal/core"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// Kernel selects which Rig kernel a Scenario runs.
type Kernel int

// Kernels: the §IV-B1 PIO flag ping-pong (Rig.PingPong), the poll-paced
// PIO store stream (Rig.StoreStream), and the §IV-A chained DMA timed to
// its completion interrupt (Rig.ChainDMA).
const (
	KernelPingPong Kernel = iota
	KernelStoreStream
	KernelChainDMA
)

// kernelNames are the kernels' names, the values tcatrace's -scenario takes.
var kernelNames = [...]string{KernelPingPong: "pingpong", KernelStoreStream: "stream", KernelChainDMA: "dma"}

// String returns the kernel's name.
func (k Kernel) String() string { return kernelNames[k] }

// KernelByName returns the kernel whose String is name.
func KernelByName(name string) (Kernel, bool) {
	for k, n := range kernelNames {
		if n == name {
			return Kernel(k), true
		}
	}
	return 0, false
}

// Scenario is one kernel run on a fresh ring, declared as data. tcatrace
// fills one from its flags; the profiled perf scenarios and the
// BENCH_PR2.json critpath anchors are literals. Each is checked with
// Validate and run with Run.
type Scenario struct {
	Kernel Kernel
	// Nodes is the ring size. Src and Dst are the kernel's endpoints: the
	// pinging and answering nodes, the storing and polling nodes, or the
	// DMA's chip and the node holding the far-end buffer.
	Nodes, Src, Dst int
	// Rounds counts ping-pong round trips or store-stream stores.
	Rounds int
	// Size, Count, Stride and Chains shape the chained DMA as in Chain,
	// except that Chains must be set.
	Size   units.ByteSize
	Count  int
	Stride units.ByteSize
	Chains int
}

// String names the run by its kernel and the fields that kernel uses, as
// in "pingpong ×8 node0<->node2 (4-node ring)" or
// "dma 4×(8×4KiB, stride 8KiB) node0->node1 (2-node ring)".
func (s Scenario) String() string {
	ring := fmt.Sprintf("(%d-node ring)", s.Nodes)
	switch s.Kernel {
	case KernelPingPong:
		return fmt.Sprintf("%v ×%d node%d<->node%d %s", s.Kernel, s.Rounds, s.Src, s.Dst, ring)
	case KernelStoreStream:
		return fmt.Sprintf("%v ×%d node%d->node%d %s", s.Kernel, s.Rounds, s.Src, s.Dst, ring)
	}
	stride := s.Stride
	if stride == 0 {
		stride = s.Size
	}
	return fmt.Sprintf("%v %d×(%d×%v, stride %v) node%d->node%d %s",
		s.Kernel, s.Chains, s.Count, s.Size, stride, s.Src, s.Dst, ring)
}

// Validate reports the first field the kernel uses that is out of range
// for a ring built with prm. Its messages name the tcatrace flags that
// fill those fields, so tcatrace prints them after its own prefix and
// exits 2.
func (s Scenario) Validate(prm tcanet.Params) error {
	if s.Nodes < 2 || s.Nodes > 16 {
		return errors.New("-nodes must be in [2, 16]")
	}
	if s.Src == s.Dst || s.Src < 0 || s.Dst < 0 || s.Src >= s.Nodes || s.Dst >= s.Nodes {
		return errors.New("need distinct -src/-dst inside the ring")
	}
	switch s.Kernel {
	case KernelPingPong, KernelStoreStream:
		if s.Rounds < 1 {
			return errors.New("-rounds must be positive")
		}
	case KernelChainDMA:
		if s.Size < 1 || s.Count < 1 {
			return errors.New("-size and -count must be positive")
		}
		if s.Chains < 1 {
			return errors.New("-chains must be positive")
		}
		if s.Stride < 0 {
			return errors.New("-stride must not be negative")
		}
		if s.Count > core.MaxChain {
			return fmt.Errorf("-count must be at most %d (the driver's descriptor table)", core.MaxChain)
		}
		// The source chip stages one block in its internal memory.
		if s.Size > prm.Chip.InternalMemSize {
			return fmt.Errorf("-size must be at most %v (the PEACH2 internal memory)", prm.Chip.InternalMemSize)
		}
		// The far-end buffer must stay inside the destination's host block
		// of the global map (a block is smaller than host DRAM), or its
		// tail would land in the next block.
		stride := s.Stride
		if stride == 0 {
			stride = s.Size
		}
		plan, err := tcanet.NewPlan(s.Nodes)
		if err != nil {
			return err
		}
		if block := plan.BlockSize(); stride > block/units.ByteSize(s.Count) {
			return fmt.Errorf("-size and -count span more than the %v host block of a %d-node ring", block, s.Nodes)
		}
	default:
		return fmt.Errorf("bench: unknown kernel %d", s.Kernel)
	}
	return nil
}

// Run validates s, builds its ring with attachments a and runs its kernel
// once. The rig is returned for the caller's view of the run: spans,
// metrics, telemetry. The errors are Validate's, a malformed fault spec,
// and a ping-pong that stalled or lost a payload.
func (s Scenario) Run(prm tcanet.Params, a Attach) (*Rig, *Result, error) {
	if err := s.Validate(prm); err != nil {
		return nil, nil, err
	}
	r, err := NewRig(s.Nodes, prm, a)
	if err != nil {
		return nil, nil, err
	}
	var res *Result
	switch s.Kernel {
	case KernelPingPong:
		res, err = r.PingPong(s.Src, s.Dst, s.Rounds)
	case KernelStoreStream:
		res = r.StoreStream(s.Src, s.Dst, s.Rounds, pioFlag)
	case KernelChainDMA:
		res = r.ChainDMA(Chain{Src: s.Src, Dst: s.Dst, Size: s.Size, Count: s.Count, Stride: s.Stride, Chains: s.Chains})
	}
	return r, res, err
}
