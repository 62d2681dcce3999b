// Package core implements the TCA programming interface of §III-H: a
// CUDA-flavoured API in which remote GPUs look like peers — the paper's
// "function similar to cudaMemcpyPeer ... available for the target node ID
// in addition to the GPU IDs". It drives the PEACH2 chips exactly the way
// the real driver would: descriptor tables written into host memory,
// register stores over the PIO path, completion interrupts, and chain
// queueing per chip.
package core

import (
	"fmt"

	"tca/internal/fifo"
	"tca/internal/host"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// DMAMode selects how host/GPU-sourced remote transfers run.
type DMAMode int

// DMA modes.
const (
	// TwoPhase is the paper's current DMAC (§IV-B2): stage into PEACH2's
	// internal memory with a DMA read, then write out to the remote node
	// — two activations, serious overhead.
	TwoPhase DMAMode = iota
	// Pipelined is the paper's announced new DMAC: one descriptor whose
	// read and write sides overlap.
	Pipelined
)

// String names the mode.
func (m DMAMode) String() string {
	if m == Pipelined {
		return "pipelined"
	}
	return "two-phase"
}

// scratchSize bounds a staged (two-phase) transfer.
const scratchSize = 64 * units.MiB

// MaxChain is the descriptor-table capacity the driver allocates — the 255
// of the paper's burst experiments plus one.
const MaxChain = 256

// Comm is a TCA communicator spanning one sub-cluster.
type Comm struct {
	sc   *tcanet.SubCluster
	mode DMAMode
	drv  []*driver
}

// driver is the per-node PEACH2 driver state: the descriptor-table DMA
// buffer and the chain queue serialized on the single DMAC.
type driver struct {
	node     *host.Node
	chip     *peach2.Chip
	tableBuf pcie.Addr
	busy     bool
	queue    fifo.Queue[chainReq]
	current  func(now sim.Time)

	// lastErr is the chain error the chip reported at the most recent
	// completion interrupt (nil for a clean chain) — an aborted chain still
	// raises the IRQ, so the driver learns about timeouts and stuck
	// descriptors here instead of hanging.
	lastErr error

	// Observability (nil when the sub-cluster is uninstrumented). The
	// driver closes a traced chain's span with StageChainDone when its
	// completion callback runs — the last hop of a Fig. 9-style DMA
	// breakdown.
	rec     *obsv.Recorder
	mChains *obsv.Counter
	mPuts   *obsv.Counter
}

type chainReq struct {
	descs []peach2.Descriptor
	done  func(now sim.Time)
}

// NewComm attaches drivers to every node of the sub-cluster. If the
// sub-cluster was instrumented (tcanet.SubCluster.Instrument) before this
// call, the drivers register their own chain/put counters and close traced
// DMA spans in the interrupt handler.
func NewComm(sc *tcanet.SubCluster) (*Comm, error) {
	c := &Comm{sc: sc, mode: TwoPhase}
	obs := sc.Observability()
	for i := 0; i < sc.Nodes(); i++ {
		buf, err := sc.Node(i).AllocDMABuffer(MaxChain * peach2.DescriptorBytes)
		if err != nil {
			return nil, fmt.Errorf("core: node %d table buffer: %w", i, err)
		}
		d := &driver{node: sc.Node(i), chip: sc.Chip(i), tableBuf: buf}
		comp := fmt.Sprintf("node%d/driver", i)
		d.rec = obs.Recorder()
		d.mChains = obs.Registry().Counter("driver_chains", comp)
		d.mPuts = obs.Registry().Counter("driver_pio_puts", comp)
		obs.Sampler().Register("driver_chain_queue", comp, "", "chains",
			func(sim.Time, units.Duration) float64 {
				q := d.queue.Len()
				if d.busy {
					q++
				}
				return float64(q)
			})
		d.chip.SetIRQHandler(d.onIRQ)
		c.drv = append(c.drv, d)
	}
	return c, nil
}

// SubCluster returns the communicator's fabric.
func (c *Comm) SubCluster() *tcanet.SubCluster { return c.sc }

// Mode reports the active DMA mode.
func (c *Comm) Mode() DMAMode { return c.mode }

// SetMode switches between the two-phase and pipelined DMACs.
func (c *Comm) SetMode(m DMAMode) { c.mode = m }

func (c *Comm) driverOf(node int) *driver {
	if node < 0 || node >= len(c.drv) {
		panic(fmt.Sprintf("core: node %d outside sub-cluster of %d", node, len(c.drv)))
	}
	return c.drv[node]
}

// StartChain submits a descriptor chain on node's chip; done fires in the
// completion interrupt handler. Chains queue behind the chip's single DMAC.
func (c *Comm) StartChain(node int, descs []peach2.Descriptor, done func(now sim.Time)) error {
	if len(descs) == 0 {
		return fmt.Errorf("core: empty descriptor chain")
	}
	if len(descs) > MaxChain {
		return fmt.Errorf("core: chain of %d exceeds the %d-entry table", len(descs), MaxChain)
	}
	d := c.driverOf(node)
	d.submit(chainReq{descs: descs, done: done})
	return nil
}

func (d *driver) submit(req chainReq) {
	if d.busy {
		d.queue.Push(req)
		return
	}
	d.start(req)
}

// start performs the driver's activation sequence: write the encoded table
// into host memory, then two register stores over the PIO path — table
// address and count; the count store is the doorbell.
func (d *driver) start(req chainReq) {
	d.busy = true
	d.current = req.done
	d.mChains.Inc()
	table := peach2.EncodeTable(req.descs)
	if err := d.node.WriteLocal(d.tableBuf, table); err != nil {
		panic(fmt.Sprintf("core: table write: %v", err))
	}
	regs := d.chip.Plan().Internal.Base
	d.node.Store(regs+pcie.Addr(peach2.RegDMATable), le64(uint64(d.tableBuf)))
	d.node.Store(regs+pcie.Addr(peach2.RegDMACount), le64(uint64(len(req.descs))))
}

func (d *driver) onIRQ(now sim.Time) {
	d.lastErr = d.chip.DMAC().LastChainError()
	if d.rec != nil {
		if txn := d.chip.DMAC().LastChainTxn(); txn != 0 {
			d.rec.Record(obsv.Event{At: now, Txn: txn, Stage: obsv.StageChainDone,
				Where: d.node.Name() + "/driver"})
		}
	}
	done := d.current
	d.current = nil
	d.busy = false
	if d.queue.Len() > 0 {
		// Resubmission pays the full activation cost again, just like a
		// fresh chain.
		d.start(d.queue.Pop())
	}
	if done != nil {
		done(now)
	}
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// ChainError reports the error the most recently completed chain on node's
// chip aborted with, or nil if it finished cleanly. Under fault injection a
// chain can die on a completion-timeout retry budget, a stuck descriptor,
// or the chain watchdog; the completion interrupt still fires (with the
// error latched) so callers poll this instead of deadlocking.
func (c *Comm) ChainError(node int) error { return c.driverOf(node).lastErr }

// PIOPut stores data into a global TCA address from node's CPU — the
// mmap-and-store communication of §III-F1. Data beyond one TLP payload is
// split into multiple stores.
func (c *Comm) PIOPut(node int, dst pcie.Addr, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("core: empty PIO put")
	}
	d := c.driverOf(node)
	d.mPuts.Inc()
	for _, w := range pcie.SplitWrite(dst, data, pcie.DefaultMaxPayload, false) {
		d.node.Store(w.Addr, w.Data)
	}
	return nil
}

// WriteFlag writes an 8-byte flag value to a global address — the notify
// half of the flag synchronization TCA applications use.
func (c *Comm) WriteFlag(node int, dst pcie.Addr, value uint64) error {
	return c.PIOPut(node, dst, le64(value))
}

// WaitFlag runs fn when node's local host memory at bus address addr is
// written by the fabric (the wait half; §IV-B1 step 6's polling). Waiting
// on the same flag again replaces fn: a flag word has one poller.
func (c *Comm) WaitFlag(node int, addr pcie.Addr, fn func(now sim.Time)) {
	c.driverOf(node).node.Poll(pcie.Range{Base: addr, Size: 8}, fn)
}
