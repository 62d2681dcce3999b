// Package coll provides MPI-free collective operations over the TCA
// programming interface — the "API for using TCA" the paper's conclusion
// announces (§VI). Data moves by chained-DMA puts through the PEACH2 ring;
// synchronization is PIO flag stores; nothing touches an MPI stack ("as a
// result, the overhead of MPI protocol stack can be eliminated", §V).
//
// All collectives operate on registered host buffers and complete through
// a callback, like the rest of the simulated driver world. All collectives
// share one mailbox and one flag word per node, so one collective finishes
// before the next starts on the same Communicator.
package coll

import (
	"encoding/binary"
	"fmt"
	"math"

	"tca/internal/core"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// Communicator runs collectives over a core.Comm.
type Communicator struct {
	comm  *core.Comm
	n     int
	seq   int // generation of the latest collective, in its flag values
	boxes []mailbox

	// Observability (nil handles when the sub-cluster is uninstrumented).
	mBarriers   *obsv.Counter
	mAllreduces *obsv.Counter
	mSignals    *obsv.Counter
}

// mailbox is one node's inbox for collective traffic: a staging area and,
// past it, the node's one flag word.
type mailbox struct {
	buf core.HostBuffer
}

// mailboxSize bounds one collective's per-node staging space.
const mailboxSize = 256 * units.KiB

// flagBytes is the synchronization word size.
const flagBytes = 8

// New prepares per-node mailboxes on every node of the communicator's
// sub-cluster.
func New(comm *core.Comm) (*Communicator, error) {
	n := comm.SubCluster().Nodes()
	c := &Communicator{comm: comm, n: n}
	for i := 0; i < n; i++ {
		buf, err := comm.AllocHostBuffer(i, mailboxSize+flagBytes)
		if err != nil {
			return nil, fmt.Errorf("coll: node %d mailbox: %w", i, err)
		}
		c.boxes = append(c.boxes, mailbox{buf: buf})
	}
	reg := comm.SubCluster().Observability().Registry()
	c.mBarriers = reg.Counter("coll_barriers", "coll")
	c.mAllreduces = reg.Counter("coll_allreduces", "coll")
	c.mSignals = reg.Counter("coll_signals", "coll")
	return c, nil
}

// flagAddr is the bus address of node i's flag word.
func (c *Communicator) flagAddr(i int) pcie.Addr {
	return c.boxes[i].buf.Bus + pcie.Addr(mailboxSize)
}

// watchFlag points node i's flag-word poller at fn, replacing the previous
// collective's handler. fn gets the word's value at detection and drops other
// generations: late duplicates, such as salvage re-deliveries after failover.
func (c *Communicator) watchFlag(i int, fn func(now sim.Time, value uint64)) {
	c.comm.WaitFlag(i, c.flagAddr(i), func(now sim.Time) {
		raw, err := c.comm.ReadHost(c.boxes[i].buf, mailboxSize, flagBytes)
		if err != nil {
			panic(fmt.Sprintf("coll: flag read: %v", err))
		}
		fn(now, binary.LittleEndian.Uint64(raw))
	})
}

// signal writes value into dst's flag word from src's CPU.
func (c *Communicator) signal(src, dst int, value uint64) {
	c.mSignals.Inc()
	g, err := c.comm.GlobalHost(c.boxes[dst].buf, mailboxSize)
	if err != nil {
		panic(fmt.Sprintf("coll: %v", err))
	}
	if err := c.comm.WriteFlag(src, g, value); err != nil {
		panic(fmt.Sprintf("coll: %v", err))
	}
}

// pioCutover is the payload size below which data rides PIO stores instead
// of a DMA chain: the per-chain activation (~3 µs of doorbell, descriptor
// fetch and interrupt) dwarfs sub-kilobyte payloads, which is exactly why
// the paper calls PIO "useful for the short message transfer" (§III-F1).
const pioCutover = 2 * units.KiB

// putThenSignal moves n bytes from src's buffer into dst's mailbox at
// mailbox offset off, then raises dst's flag with value. Small payloads go
// by PIO — the data stores and the flag store follow the same FIFO path,
// so posted-write ordering makes the flag arrive last. Large payloads go by
// chained DMA, with the flag written after the chain's completion
// interrupt (the driver-level flush guarantee).
func (c *Communicator) putThenSignal(src int, srcBus pcie.Addr, dst int, off units.ByteSize, n units.ByteSize, value uint64) {
	if n <= pioCutover {
		data, err := c.comm.ReadHostBus(src, srcBus, n)
		if err != nil {
			panic(fmt.Sprintf("coll: pio source: %v", err))
		}
		g, err := c.comm.GlobalHost(c.boxes[dst].buf, off)
		if err != nil {
			panic(fmt.Sprintf("coll: %v", err))
		}
		if err := c.comm.PIOPut(src, g, data); err != nil {
			panic(fmt.Sprintf("coll: pio put: %v", err))
		}
		c.signal(src, dst, value)
		return
	}
	err := c.comm.PutToHost(c.boxes[dst].buf, off, src, srcBus, n, func(sim.Time) {
		c.signal(src, dst, value)
	})
	if err != nil {
		panic(fmt.Sprintf("coll: put: %v", err))
	}
}

// Barrier synchronizes all nodes: a dissemination barrier over PIO flags
// (log2(n) rounds, each node signalling rank+2^k). done fires on every
// node's completion; the callback receives the completion time.
func (c *Communicator) Barrier(done func(now sim.Time)) {
	c.mBarriers.Inc()
	if c.n == 1 {
		done(0)
		return
	}
	c.seq++
	myGen := uint64(c.seq)
	gen := myGen << 32

	rounds := 0
	for 1<<rounds < c.n {
		rounds++
	}
	// arrived[i] counts flags seen per round on node i.
	type state struct {
		round int
		seen  map[uint64]bool
	}
	states := make([]*state, c.n)
	for i := range states {
		states[i] = &state{seen: map[uint64]bool{}}
	}
	finished := 0

	// Dissemination: a node may emit its round-k signal only once it has
	// observed round k-1 — the causal chain that makes it a barrier.
	emit := func(i, k int) {
		partner := (i + (1 << k)) % c.n
		c.signal(i, partner, gen|uint64(k))
	}
	var advance func(i int, now sim.Time)
	advance = func(i int, now sim.Time) {
		st := states[i]
		for {
			if st.round == rounds {
				finished++
				if finished == c.n {
					done(now)
				}
				return
			}
			want := gen | uint64(st.round)
			if !st.seen[want] {
				return
			}
			st.round++
			if st.round < rounds {
				emit(i, st.round)
			}
		}
	}
	for i := 0; i < c.n; i++ {
		i := i
		c.watchFlag(i, func(now sim.Time, v uint64) {
			if v>>32 != myGen {
				return // a late duplicate of an earlier collective's signal
			}
			states[i].seen[v] = true
			advance(i, now)
		})
	}
	// Round 0 enters immediately on every node.
	for i := 0; i < c.n; i++ {
		emit(i, 0)
	}
}

// ringStep is one send of the allreduce/allgather schedule.
func chunkToSend(rank, step, n int) int {
	if step <= n-1 { // reduce-scatter
		return ((rank-(step-1))%n + n) % n
	}
	return ((rank+1-(step-n))%n + n) % n // allgather
}

// Allreduce sums vectors of count float64 across all nodes, in place in
// each node's registered buffer bufs[i] (which must hold count*8 bytes and
// count must divide evenly by the node count). The ring algorithm of Patarasuk &
// Yuan: n-1 reduce-scatter steps then n-1 allgather steps, 2(n-1) puts per
// node, bandwidth-optimal. done fires when every node holds the sum.
func (c *Communicator) Allreduce(bufs []core.HostBuffer, count int, done func(now sim.Time)) error {
	n := c.n
	if len(bufs) != n {
		return fmt.Errorf("coll: Allreduce needs %d buffers, got %d", n, len(bufs))
	}
	if count%n != 0 || count <= 0 {
		return fmt.Errorf("coll: element count %d must be a positive multiple of %d", count, n)
	}
	chunkN := count / n
	chunk := units.ByteSize(chunkN * 8)
	if chunk > mailboxSize {
		return fmt.Errorf("coll: chunk %v exceeds the %v mailbox", chunk, units.ByteSize(mailboxSize))
	}
	c.mAllreduces.Inc()
	c.seq++
	myGen := uint64(c.seq)
	gen := myGen << 32
	finished := 0

	type state struct{ recvd int }
	states := make([]*state, n)
	for i := range states {
		states[i] = &state{}
	}

	send := func(rank, step int) {
		ci := chunkToSend(rank, step, n)
		c.putThenSignal(rank, bufs[rank].Bus+pcie.Addr(ci*int(chunk)), (rank+1)%n, 0, chunk, gen|uint64(step))
	}

	for i := 0; i < n; i++ {
		i := i
		c.watchFlag(i, func(now sim.Time, v uint64) {
			if v>>32 != myGen {
				return // a late duplicate would fail the step check below, or pass it wrongly
			}
			step := int(v & 0xffffffff)
			st := states[i]
			if step != st.recvd+1 {
				panic(fmt.Sprintf("coll: node %d got step %d at %d", i, step, st.recvd))
			}
			st.recvd = step
			ci := chunkToSend((i-1+n)%n, step, n)
			in, err := c.comm.ReadHost(c.boxes[i].buf, 0, chunk)
			if err != nil {
				panic(err)
			}
			if step <= n-1 {
				cur, err := c.comm.ReadHost(bufs[i], units.ByteSize(ci*int(chunk)), chunk)
				if err != nil {
					panic(err)
				}
				addF64(cur, in)
				in = cur
			}
			if err := c.comm.WriteHost(bufs[i], units.ByteSize(ci*int(chunk)), in); err != nil {
				panic(err)
			}
			if step == 2*(n-1) {
				finished++
				if finished == n {
					done(now)
				}
				return
			}
			send(i, step+1)
		})
	}
	for i := 0; i < n; i++ {
		send(i, 1)
	}
	return nil
}

// addF64 accumulates b into a, elementwise, as float64.
func addF64(a, b []byte) {
	for j := 0; j+8 <= len(a); j += 8 {
		x := frombits(a[j:])
		y := frombits(b[j:])
		binary.LittleEndian.PutUint64(a[j:], tobits(x+y))
	}
}

func frombits(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
func tobits(f float64) uint64 { return math.Float64bits(f) }
