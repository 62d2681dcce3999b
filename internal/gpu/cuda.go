package gpu

import (
	"fmt"

	"tca/internal/sim"
	"tca/internal/units"
)

// CopyParams sets the analytic cost model for host-driven cudaMemcpy-style
// transfers. These copies are the building blocks of the *conventional*
// GPU-to-GPU path the paper's introduction criticizes (copy to host, ship
// over the interconnect, copy to GPU); the TCA path bypasses them entirely,
// so modelling them analytically (latency + bandwidth) rather than TLP by
// TLP keeps the baseline honest without simulating the CUDA driver.
type CopyParams struct {
	// SetupLatency is the per-call driver/launch overhead — the dominant
	// term for short messages and the reason conventional short-message
	// GPU communication is expensive.
	SetupLatency units.Duration
	// HtoD and DtoH are the effective pinned-memory copy bandwidths
	// across the GPU's PCIe slot.
	HtoD units.Bandwidth
	DtoH units.Bandwidth
	// DtoD is the intra-node peer-to-peer (cudaMemcpyPeer) bandwidth
	// through the shared switch.
	DtoD units.Bandwidth
}

// K20CopyParams models CUDA 5 on the paper's test node: a Gen2 x16 slot
// moves ~5.7 GB/s effective; call overhead is in the ~7 µs class.
var K20CopyParams = CopyParams{
	SetupLatency: 7 * units.Microsecond,
	HtoD:         5.7 * units.GBPerSec,
	DtoH:         5.5 * units.GBPerSec,
	DtoD:         5.0 * units.GBPerSec,
}

// CopyEngine issues host-driven copies. Copies through the same engine
// serialize, like same-stream CUDA operations.
type CopyEngine struct {
	eng    *sim.Engine
	params CopyParams
	ser    sim.Serializer
}

// NewCopyEngine creates a copy engine with the given cost model.
func NewCopyEngine(eng *sim.Engine, params CopyParams) *CopyEngine {
	if params.HtoD <= 0 || params.DtoH <= 0 || params.DtoD <= 0 {
		panic(fmt.Sprintf("gpu: CopyParams with non-positive bandwidth: %+v", params))
	}
	return &CopyEngine{eng: eng, params: params}
}

func (c *CopyEngine) schedule(n units.ByteSize, bw units.Bandwidth, fn func(now sim.Time)) {
	dur := c.params.SetupLatency + units.TimeToSend(n, bw)
	start := c.ser.Reserve(c.eng.Now(), dur)
	c.eng.At(start.Add(dur), func() { fn(c.eng.Now()) })
}

// MemcpyHtoD copies src into g's device memory at dst — cuMemcpyHtoD. The
// bytes land and done fires when the modelled copy time elapses.
func (c *CopyEngine) MemcpyHtoD(g *GPU, dst DevicePtr, src []byte, done func(now sim.Time)) error {
	if len(src) == 0 {
		return fmt.Errorf("gpu: MemcpyHtoD of 0 bytes")
	}
	data := append([]byte(nil), src...) // the caller may reuse src
	c.schedule(units.ByteSize(len(data)), c.params.HtoD, func(now sim.Time) {
		if err := g.Memory().Write(uint64(dst), data); err != nil {
			panic(fmt.Sprintf("gpu %s: MemcpyHtoD: %v", g.name, err))
		}
		if done != nil {
			done(now)
		}
	})
	return nil
}

// MemcpyDtoH copies n bytes from g's device memory at src — cuMemcpyDtoH.
// done receives the data snapshot taken at completion time.
func (c *CopyEngine) MemcpyDtoH(g *GPU, src DevicePtr, n units.ByteSize, done func(now sim.Time, data []byte)) error {
	if n <= 0 {
		return fmt.Errorf("gpu: MemcpyDtoH of %d bytes", n)
	}
	if done == nil {
		return fmt.Errorf("gpu: MemcpyDtoH needs a completion callback")
	}
	c.schedule(n, c.params.DtoH, func(now sim.Time) {
		data, err := g.Memory().ReadBytes(uint64(src), n)
		if err != nil {
			panic(fmt.Sprintf("gpu %s: MemcpyDtoH: %v", g.name, err))
		}
		done(now, data)
	})
	return nil
}

// MemcpyPeer copies n bytes from (srcGPU, src) to (dstGPU, dst) within a
// node — the cudaMemcpyPeer the TCA API generalizes across nodes (§III-H).
func (c *CopyEngine) MemcpyPeer(dstGPU *GPU, dst DevicePtr, srcGPU *GPU, src DevicePtr, n units.ByteSize, done func(now sim.Time)) error {
	if n <= 0 {
		return fmt.Errorf("gpu: MemcpyPeer of %d bytes", n)
	}
	c.schedule(n, c.params.DtoD, func(now sim.Time) {
		data, err := srcGPU.Memory().ReadBytes(uint64(src), n)
		if err != nil {
			panic(fmt.Sprintf("gpu %s: MemcpyPeer read: %v", srcGPU.name, err))
		}
		if err := dstGPU.Memory().Write(uint64(dst), data); err != nil {
			panic(fmt.Sprintf("gpu %s: MemcpyPeer write: %v", dstGPU.name, err))
		}
		if done != nil {
			done(now)
		}
	})
	return nil
}
