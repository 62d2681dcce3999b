package ib

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"tca/internal/host"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

func newFabric(t *testing.T, n int) (*sim.Engine, *Fabric, []*host.Node) {
	t.Helper()
	eng := sim.NewEngine()
	var nodes []*host.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, host.NewNode(eng, i, host.DefaultParams))
	}
	f, err := NewFabric(eng, nodes, QDRParams)
	if err != nil {
		t.Fatal(err)
	}
	return eng, f, nodes
}

func TestVerbsSendMovesData(t *testing.T) {
	eng, f, nodes := newFabric(t, 2)
	src, _ := nodes[0].AllocDMABuffer(4 * units.KiB)
	dst, _ := nodes[1].AllocDMABuffer(4 * units.KiB)
	want := []byte("verbs rdma write")
	if err := nodes[0].WriteLocal(src, want); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if err := f.VerbsSend(0, 1, src, dst, units.ByteSize(len(want)), func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, _ := nodes[1].ReadLocal(dst, units.ByteSize(len(want)))
	if !bytes.Equal(got, want) {
		t.Fatal("verbs send corrupted data")
	}
	// Small-message verbs latency: ~2×NIC + wire + payload ≈ 1 µs class,
	// matching the "<1 µsec" the paper quotes for the hardware level.
	if doneAt < sim.Time(900*units.Nanosecond) || doneAt > sim.Time(1200*units.Nanosecond) {
		t.Fatalf("verbs small-message latency %v, want ~1us", doneAt)
	}
}

func TestMPIAddsSoftwareOverhead(t *testing.T) {
	eng, f, nodes := newFabric(t, 2)
	src, _ := nodes[0].AllocDMABuffer(4 * units.KiB)
	dst, _ := nodes[1].AllocDMABuffer(4 * units.KiB)
	if err := nodes[0].WriteLocal(src, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var verbsAt, mpiAt sim.Time
	if err := f.VerbsSend(0, 1, src, dst, 1, func(now sim.Time) { verbsAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	start := eng.Now()
	if err := f.MPISend(0, 1, src, dst, 1, func(now sim.Time) { mpiAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	mpiLat := mpiAt.Sub(start)
	if mpiLat <= units.Duration(verbsAt) {
		t.Fatalf("MPI latency %v not above verbs %v", mpiLat, verbsAt)
	}
	want := units.Duration(verbsAt) + QDRParams.MPIOverhead
	if mpiLat != want {
		t.Fatalf("MPI latency %v, want verbs+overhead = %v", mpiLat, want)
	}
}

func TestRendezvousAboveEagerThreshold(t *testing.T) {
	eng, f, nodes := newFabric(t, 2)
	big := QDRParams.EagerThreshold * 2
	src, _ := nodes[0].AllocDMABuffer(big)
	dst, _ := nodes[1].AllocDMABuffer(big)
	small := QDRParams.EagerThreshold
	var smallLat, bigLat units.Duration
	start := eng.Now()
	if err := f.MPISend(0, 1, src, dst, small, func(now sim.Time) { smallLat = now.Sub(start) }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	start = eng.Now()
	if err := f.MPISend(0, 1, src, dst, big, func(now sim.Time) { bigLat = now.Sub(start) }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// The big message pays payload time plus the rendezvous RTT.
	payloadDelta := units.TimeToSend(big, QDRParams.Bandwidth) - units.TimeToSend(small, QDRParams.Bandwidth)
	rtt := 2 * (QDRParams.NICLatency + QDRParams.WireLatency)
	if got := bigLat - smallLat; got != payloadDelta+rtt {
		t.Fatalf("rendezvous delta %v, want payload %v + RTT %v", got, payloadDelta, rtt)
	}
}

func TestFabricBandwidthBound(t *testing.T) {
	eng, f, nodes := newFabric(t, 2)
	const total = 8 * units.MiB
	src, _ := nodes[0].AllocDMABuffer(total)
	dst, _ := nodes[1].AllocDMABuffer(total)
	done := 0
	start := eng.Now()
	var end sim.Time
	const chunk = units.MiB
	for off := units.ByteSize(0); off < total; off += chunk {
		if err := f.MPISend(0, 1, src+0, dst+0, chunk, func(now sim.Time) {
			done++
			end = now
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != 8 {
		t.Fatalf("%d sends completed", done)
	}
	bw := units.Rate(total, end.Sub(start))
	// Back-to-back large sends approach the 3.2 GB/s effective rate.
	if bw.GBps() < 2.9 || bw.GBps() > 3.2 {
		t.Fatalf("streamed bandwidth %v, want ~3.2GB/s", bw)
	}
}

func TestConventionalGPUToGPU(t *testing.T) {
	eng, f, nodes := newFabric(t, 2)
	conv, err := NewConventional(f, units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	srcPtr, _ := nodes[0].GPU(0).MemAlloc(64 * units.KiB)
	dstPtr, _ := nodes[1].GPU(1).MemAlloc(64 * units.KiB)
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i * 3)
	}
	if err := nodes[0].GPU(0).Memory().Write(uint64(srcPtr), want); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if err := conv.GPUToGPU(0, 0, srcPtr, 1, 1, dstPtr, 4096, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt == 0 {
		t.Fatal("conventional copy never completed")
	}
	got, _ := nodes[1].GPU(1).Memory().ReadBytes(uint64(dstPtr), 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("conventional path corrupted data")
	}
	// Three steps: two ~7 µs cudaMemcpys plus the MPI leg — the ~15 µs
	// short-message class the paper's motivation describes.
	if doneAt < sim.Time(14*units.Microsecond) || doneAt > sim.Time(25*units.Microsecond) {
		t.Fatalf("conventional GPU-GPU latency %v, want ~15-20us", doneAt)
	}
}

func TestFabricValidation(t *testing.T) {
	eng, f, nodes := newFabric(t, 2)
	_ = eng
	src, _ := nodes[0].AllocDMABuffer(64)
	if err := f.VerbsSend(0, 0, src, src, 8, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := f.VerbsSend(0, 5, src, src, 8, nil); err == nil {
		t.Fatal("bad rank accepted")
	}
	if err := f.VerbsSend(0, 1, src, src, 0, nil); err == nil {
		t.Fatal("zero-byte send accepted")
	}
	if _, err := NewFabric(eng, nodes[:1], QDRParams); err == nil {
		t.Fatal("single-node fabric accepted")
	}
	bad := QDRParams
	bad.Bandwidth = 0
	if _, err := NewFabric(eng, nodes, bad); err == nil {
		t.Fatal("zero-bandwidth fabric accepted")
	}
	conv, _ := NewConventional(f, units.KiB)
	ptr, _ := nodes[0].GPU(0).MemAlloc(4 * units.KiB)
	if err := conv.GPUToGPU(0, 0, ptr, 1, 0, ptr, 2*units.KiB, nil); err == nil {
		t.Fatal("copy beyond staging accepted")
	}
}

func TestFabricStats(t *testing.T) {
	eng, f, nodes := newFabric(t, 2)
	src, _ := nodes[0].AllocDMABuffer(64)
	dst, _ := nodes[1].AllocDMABuffer(64)
	if err := f.VerbsSend(0, 1, src, dst, 64, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	msgs, b := f.messages, f.bytes
	if msgs != 1 || b != 64 {
		t.Fatalf("stats = %d msgs / %d bytes", msgs, b)
	}
}

func TestRingAllreduceSums(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		eng, f, nodes := newFabric(t, n)
		count := n * 16
		bufs := make([]pcie.Addr, n)
		for i := 0; i < n; i++ {
			b, err := nodes[i].AllocDMABuffer(units.ByteSize(count * 8))
			if err != nil {
				t.Fatal(err)
			}
			bufs[i] = b
			raw := make([]byte, count*8)
			for j := 0; j < count; j++ {
				binary.LittleEndian.PutUint64(raw[j*8:], math.Float64bits(float64(i+1)+float64(j)))
			}
			if err := nodes[i].WriteLocal(b, raw); err != nil {
				t.Fatal(err)
			}
		}
		var doneAt sim.Time
		if err := f.RingAllreduce(bufs, count, func(now sim.Time) { doneAt = now }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if doneAt == 0 {
			t.Fatalf("n=%d: allreduce never completed", n)
		}
		base := float64(n*(n+1)) / 2
		for i := 0; i < n; i++ {
			raw, _ := nodes[i].ReadLocal(bufs[i], units.ByteSize(count*8))
			for j := 0; j < count; j++ {
				got := math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
				if got != base+float64(n*j) {
					t.Fatalf("n=%d node %d elem %d: got %v want %v", n, i, j, got, base+float64(n*j))
				}
			}
		}
	}
}

func TestRingAllreduceValidation(t *testing.T) {
	eng, f, nodes := newFabric(t, 2)
	_ = eng
	b0, _ := nodes[0].AllocDMABuffer(64)
	if err := f.RingAllreduce([]pcie.Addr{b0}, 2, nil); err == nil {
		t.Fatal("wrong buffer count accepted")
	}
	if err := f.RingAllreduce([]pcie.Addr{b0, b0}, 3, nil); err == nil {
		t.Fatal("non-divisible count accepted")
	}
}
