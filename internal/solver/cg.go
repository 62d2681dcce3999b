// Package solver implements a distributed conjugate-gradient solver on top
// of the TCA communication stack — the kind of "full-scale scientific
// application using TCA" the paper's conclusion plans (§VI), built the way
// its target applications (particle physics, astrophysics; §II) would:
// matrix-free stencil SpMV with halo exchange by TCA put+flag, and global
// dot products by the MPI-free ring allreduce of package coll.
//
// The system solved is the 1-D Poisson problem: A = tridiag(-1, 2, -1),
// symmetric positive definite, distributed in contiguous slabs across the
// sub-cluster's nodes.
package solver

import (
	"encoding/binary"
	"fmt"
	"math"

	"tca/internal/coll"
	"tca/internal/core"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// CG is a distributed conjugate-gradient instance.
type CG struct {
	comm *core.Comm
	coll *coll.Communicator
	n    int // nodes
	m    int // rows per node
	N    int // global rows

	// Per node: the five CG vectors, each m float64, plus a halo inbox
	// (two cells: left, right) and its flag, and a scalar allreduce
	// buffer of n float64.
	x, b, r, p, q []core.HostBuffer
	halo          []core.HostBuffer
	scal          []core.HostBuffer
}

// haloLayout: [0,8) left ghost, [8,16) right ghost, [16,24) flag word.
const (
	haloLeft  = 0
	haloRight = 8
	haloFlag  = 16
	haloSize  = 24
)

// Stats reports a solve's outcome.
type Stats struct {
	Iterations int
	Residual   float64 // final sqrt(r·r)
	Elapsed    units.Duration
}

// New builds a CG instance for N global rows across the communicator's
// sub-cluster; N must divide evenly by the node count.
func New(comm *core.Comm, cc *coll.Communicator, N int) (*CG, error) {
	n := comm.SubCluster().Nodes()
	if N <= 0 || N%n != 0 {
		return nil, fmt.Errorf("solver: %d rows do not divide across %d nodes", N, n)
	}
	m := N / n
	if m < 2 {
		return nil, fmt.Errorf("solver: need at least 2 rows per node, got %d", m)
	}
	cg := &CG{comm: comm, coll: cc, n: n, m: m, N: N}
	alloc := func(dst *[]core.HostBuffer, size units.ByteSize) error {
		for i := 0; i < n; i++ {
			buf, err := comm.AllocHostBuffer(i, size)
			if err != nil {
				return err
			}
			*dst = append(*dst, buf)
		}
		return nil
	}
	vec := units.ByteSize(m * 8)
	for _, v := range []*[]core.HostBuffer{&cg.x, &cg.b, &cg.r, &cg.p, &cg.q} {
		if err := alloc(v, vec); err != nil {
			return nil, err
		}
	}
	if err := alloc(&cg.halo, haloSize); err != nil {
		return nil, err
	}
	if err := alloc(&cg.scal, units.ByteSize(n*8)); err != nil {
		return nil, err
	}
	return cg, nil
}

// vector access helpers (harness-side, no simulated time).

func (cg *CG) load(buf core.HostBuffer) []float64 {
	raw, err := cg.comm.ReadHost(buf, 0, units.ByteSize(cg.m*8))
	if err != nil {
		panic(err)
	}
	out := make([]float64, cg.m)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}

func (cg *CG) store(buf core.HostBuffer, v []float64) {
	raw := make([]byte, len(v)*8)
	for i, f := range v {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(f))
	}
	if err := cg.comm.WriteHost(buf, 0, raw); err != nil {
		panic(err)
	}
}

// SetB sets the global right-hand side (length N).
func (cg *CG) SetB(b []float64) error {
	if len(b) != cg.N {
		return fmt.Errorf("solver: rhs length %d, want %d", len(b), cg.N)
	}
	for i := 0; i < cg.n; i++ {
		cg.store(cg.b[i], b[i*cg.m:(i+1)*cg.m])
	}
	return nil
}

// X returns the assembled global solution.
func (cg *CG) X() []float64 {
	out := make([]float64, 0, cg.N)
	for i := 0; i < cg.n; i++ {
		out = append(out, cg.load(cg.x[i])...)
	}
	return out
}

// exchangeHalo ships every node's boundary elements of src to its ring
// neighbours' ghost cells — 2n TCA puts, each followed by a PIO flag, with
// completion when every node holds both ghosts. Edge nodes' outer ghosts
// are zero (Dirichlet boundary), delivered locally.
func (cg *CG) exchangeHalo(src []core.HostBuffer, done func(now sim.Time)) {
	type nodeState struct{ got int }
	states := make([]*nodeState, cg.n)
	expected := make([]int, cg.n)
	finished := 0
	for i := range states {
		states[i] = &nodeState{}
		expected[i] = 2
		if i == 0 {
			expected[i]-- // no left neighbour
		}
		if i == cg.n-1 {
			expected[i]-- // no right neighbour
		}
	}
	for i := 0; i < cg.n; i++ {
		i := i
		flagBus := cg.halo[i].Bus + pcie.Addr(haloFlag)
		cg.comm.WaitFlag(i, flagBus, func(now sim.Time) {
			states[i].got++
			if states[i].got == expected[i] {
				finished++
				if finished == cg.n {
					done(now)
				}
			}
		})
	}
	// Zero the ghosts (covers boundary nodes), then ship interior ones.
	for i := 0; i < cg.n; i++ {
		if err := cg.comm.WriteHost(cg.halo[i], 0, make([]byte, 16)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < cg.n; i++ {
		// Last element of node i -> left ghost of node i+1.
		if i+1 < cg.n {
			cg.putCell(src[i], units.ByteSize((cg.m-1)*8), i, i+1, haloLeft)
		}
		// First element of node i -> right ghost of node i-1.
		if i > 0 {
			cg.putCell(src[i], 0, i, i-1, haloRight)
		}
	}
}

// putCell ships one float64 from a vector buffer to a neighbour's ghost
// cell, flagging after the flush. The flag's value is unread: the halo
// handler counts flag writes.
func (cg *CG) putCell(srcBuf core.HostBuffer, srcOff units.ByteSize, srcNode, dstNode int, ghostOff units.ByteSize) {
	flagGlobal, err := cg.comm.GlobalHost(cg.halo[dstNode], haloFlag)
	if err != nil {
		panic(err)
	}
	err = cg.comm.PutToHost(cg.halo[dstNode], ghostOff, srcNode, srcBuf.Bus+pcie.Addr(srcOff), 8, func(sim.Time) {
		if err := cg.comm.WriteFlag(srcNode, flagGlobal, 1); err != nil {
			panic(err)
		}
	})
	if err != nil {
		panic(err)
	}
}

// spmv computes q = A·p locally on every node, using the freshly exchanged
// ghosts: q[j] = 2 p[j] − p[j−1] − p[j+1].
func (cg *CG) spmv() {
	for i := 0; i < cg.n; i++ {
		p := cg.load(cg.p[i])
		ghost, err := cg.comm.ReadHost(cg.halo[i], 0, 16)
		if err != nil {
			panic(err)
		}
		left := math.Float64frombits(binary.LittleEndian.Uint64(ghost[haloLeft:]))
		right := math.Float64frombits(binary.LittleEndian.Uint64(ghost[haloRight:]))
		q := make([]float64, cg.m)
		for j := 0; j < cg.m; j++ {
			lo := left
			if j > 0 {
				lo = p[j-1]
			}
			hi := right
			if j < cg.m-1 {
				hi = p[j+1]
			}
			q[j] = 2*p[j] - lo - hi
		}
		cg.store(cg.q[i], q)
	}
}

// allreduceScalar sums one partial value per node through the coll ring
// allreduce and hands every node's identical total to done.
func (cg *CG) allreduceScalar(partials []float64, done func(total float64, now sim.Time)) {
	for i := 0; i < cg.n; i++ {
		v := make([]float64, cg.n)
		v[i] = partials[i]
		raw := make([]byte, cg.n*8)
		for j, f := range v {
			binary.LittleEndian.PutUint64(raw[j*8:], math.Float64bits(f))
		}
		if err := cg.comm.WriteHost(cg.scal[i], 0, raw); err != nil {
			panic(err)
		}
	}
	err := cg.coll.Allreduce(cg.scal, cg.n, func(now sim.Time) {
		raw, err := cg.comm.ReadHost(cg.scal[0], 0, units.ByteSize(cg.n*8))
		if err != nil {
			panic(err)
		}
		total := 0.0
		for j := 0; j < cg.n; j++ {
			total += math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
		}
		done(total, now)
	})
	if err != nil {
		panic(err)
	}
}

// Solve runs CG from x = 0 until the residual norm falls below tol or
// maxIter iterations pass; done receives the outcome. The engine must be
// run by the caller (the solve is fully event-driven).
func (cg *CG) Solve(tol float64, maxIter int, done func(Stats)) {
	var start sim.Time
	// x = 0, r = b, p = r.
	for i := 0; i < cg.n; i++ {
		zero := make([]float64, cg.m)
		cg.store(cg.x[i], zero)
		b := cg.load(cg.b[i])
		cg.store(cg.r[i], b)
		cg.store(cg.p[i], b)
	}
	dotLocal := func(a, b []core.HostBuffer) []float64 {
		out := make([]float64, cg.n)
		for i := 0; i < cg.n; i++ {
			va, vb := cg.load(a[i]), cg.load(b[i])
			s := 0.0
			for j := range va {
				s += va[j] * vb[j]
			}
			out[i] = s
		}
		return out
	}

	var iterate func(iter int, rho float64, now sim.Time)
	iterate = func(iter int, rho float64, now sim.Time) {
		if math.Sqrt(rho) < tol || iter >= maxIter {
			done(Stats{Iterations: iter, Residual: math.Sqrt(rho), Elapsed: now.Sub(start)})
			return
		}
		cg.exchangeHalo(cg.p, func(now sim.Time) {
			cg.spmv()
			cg.allreduceScalar(dotLocal(cg.p, cg.q), func(pq float64, now sim.Time) {
				alpha := rho / pq
				for i := 0; i < cg.n; i++ {
					x, p, r, q := cg.load(cg.x[i]), cg.load(cg.p[i]), cg.load(cg.r[i]), cg.load(cg.q[i])
					for j := 0; j < cg.m; j++ {
						x[j] += alpha * p[j]
						r[j] -= alpha * q[j]
					}
					cg.store(cg.x[i], x)
					cg.store(cg.r[i], r)
				}
				cg.allreduceScalar(dotLocal(cg.r, cg.r), func(rhoNew float64, now sim.Time) {
					beta := rhoNew / rho
					for i := 0; i < cg.n; i++ {
						p, r := cg.load(cg.p[i]), cg.load(cg.r[i])
						for j := 0; j < cg.m; j++ {
							p[j] = r[j] + beta*p[j]
						}
						cg.store(cg.p[i], p)
					}
					iterate(iter+1, rhoNew, now)
				})
			})
		})
	}

	cg.allreduceScalar(dotLocal(cg.r, cg.r), func(rho0 float64, now sim.Time) {
		start = now
		iterate(0, rho0, now)
	})
}
