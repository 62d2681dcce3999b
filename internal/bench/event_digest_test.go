package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"path/filepath"
	"testing"

	"tca/internal/core"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// eventDigest is an engine executor that folds every dispatched event's
// timestamp and component tag into a SHA-256, in dispatch order.
type eventDigest struct {
	eng *sim.Engine
	h   hash.Hash
	buf [12]byte
}

// ExecEvent implements sim.Executor.
func (d *eventDigest) ExecEvent(comp sim.CompID, fn func()) {
	binary.LittleEndian.PutUint64(d.buf[:8], uint64(d.eng.Now()))
	binary.LittleEndian.PutUint32(d.buf[8:], uint32(comp))
	d.h.Write(d.buf[:])
	fn()
}

func (d *eventDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestRig builds an n-node rig whose components carry profiler tags and
// whose engine dispatches through an eventDigest. The profiler only hands
// out the tags: it is dropped before any kernel runs, so the digest stays
// the engine's executor for the whole run.
func digestRig(t *testing.T, n int, prm tcanet.Params, a Attach) (*Rig, *eventDigest) {
	t.Helper()
	a.Prof = prof.New(prof.Options{})
	r, err := NewRig(n, prm, a)
	if err != nil {
		t.Fatal(err)
	}
	r.prof = nil
	d := &eventDigest{eng: r.eng, h: sha256.New()}
	r.eng.SetExecutor(d)
	return r, d
}

// TestEventStreamIdentical pins the engine's whole dispatch sequence, event
// by event, for the rig kernels and the runs that reach the DMAC issue
// pipeline and the link delivery paths: the three kernels, the 4-node
// all-shift of ExtRingScaling, a pipelined-DMAC put, a chain over DLL
// links, and a chain the watchdog aborts while most of its write TLPs are
// still waiting for issue slots. A scheduling change that keeps every
// printed figure but moves, adds or drops one event fails here.
func TestEventStreamIdentical(t *testing.T) {
	want := readDigests(t, filepath.Join("testdata", "events.sha256"))
	prm := tcanet.DefaultParams
	abortPrm := prm
	abortPrm.Chip.DMA.ChainTimeout = 40 * units.Microsecond
	cases := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"pingpong", func(t *testing.T) string {
			r, d := digestRig(t, 4, prm, Attach{})
			if _, err := r.PingPong(0, 2, 20); err != nil {
				t.Fatal(err)
			}
			return d.sum()
		}},
		{"store-stream", func(t *testing.T) string {
			r, d := digestRig(t, 8, prm, Attach{})
			r.StoreStream(0, 4, 20, pioFlag)
			return d.sum()
		}},
		{"chain-dma", func(t *testing.T) string {
			r, d := digestRig(t, 2, prm, Attach{})
			r.ChainDMA(Chain{Dst: 1, Size: 4096, Count: 64, Chains: 2})
			return d.sum()
		}},
		{"ring-scaling-4", func(t *testing.T) string {
			r, d := digestRig(t, 4, prm, Attach{})
			r.allShift(4096, 255)
			return d.sum()
		}},
		{"pipelined-put", func(t *testing.T) string {
			r, d := digestRig(t, 2, prm, Attach{})
			comm := r.comm()
			comm.SetMode(core.Pipelined)
			const size = 64 * units.KiB
			src, err := comm.AllocHostBuffer(0, size)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := comm.AllocHostBuffer(1, size)
			if err != nil {
				t.Fatal(err)
			}
			done := false
			if err := comm.PutToHost(dst, 0, 0, src.Bus, size, func(sim.Time) { done = true }); err != nil {
				t.Fatal(err)
			}
			r.eng.Run()
			if !done {
				t.Fatal("pipelined put never completed")
			}
			return d.sum()
		}},
		{"dll-chain-dma", func(t *testing.T) string {
			r, d := digestRig(t, 2, prm, Attach{Fault: "corrupt:0.02", Seed: 3})
			r.ChainDMA(Chain{Dst: 1, Size: 4096, Count: 16})
			return d.sum()
		}},
		{"chain-abort", func(t *testing.T) string {
			r, d := digestRig(t, 2, abortPrm, Attach{Fault: "stuck:200", Seed: 1})
			r.ChainDMA(Chain{Dst: 1, Size: 4096, Count: 255, Chains: 2})
			if err := r.sc.Chip(0).DMAC().LastChainError(); err == nil {
				t.Fatal("the wedged chain was not aborted")
			}
			return d.sum()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if w, ok := want[tc.name]; !ok {
				t.Errorf("no committed digest for %s (got %s  %s)", tc.name, got, tc.name)
			} else if got != w {
				t.Errorf("%s event stream changed: digest %s, committed %s", tc.name, got, w)
			}
		})
	}
}
