// Package poolfix exercises the poolsafety analyzer: leaks, use after
// release, double release and escapes of pooled packets, plus the guarded
// patterns the simulator actually uses (handoff, Pin, early-return
// release branches).
package poolfix

import "pool"

type ring struct {
	parked *pool.Packet
	buf    []*pool.Packet
}

func send(t *pool.Packet)              {}
func deliver(a uint64, t *pool.Packet) {}

func leak(p *pool.Pool) {
	t := p.Get() // want `pooled Packet t is never released or handed off`
	t.Addr = 1
}

func useAfterRelease(p *pool.Pool) uint64 {
	t := p.Get()
	t.Addr = 2
	t.Release()
	return t.Addr // want `use of pooled Packet t after Release`
}

func doubleRelease(p *pool.Pool) {
	t := p.Get()
	t.Release()
	t.Release() // want `double Release of pooled Packet t`
}

func escapeField(p *pool.Pool, r *ring) {
	t := p.Get()
	r.parked = t // want `pooled Packet t stored in field parked`
}

func escapeAppend(p *pool.Pool, r *ring) {
	t := p.Get()
	r.buf = append(r.buf, t) // want `pooled Packet t appended to a slice`
}

func escapeClosure(p *pool.Pool, run func(func())) {
	t := p.Get()
	run(func() { // want `pooled Packet t captured by a closure`
		send(t)
	})
}

func okRelease(p *pool.Pool) uint64 {
	t := p.Get()
	t.Addr = 3
	a := t.Addr
	t.Release()
	return a // ok: all reads precede the release
}

func okHandoff(p *pool.Pool) {
	t := p.Get()
	t.Addr = 4
	send(t) // ok: ownership transfers to the callee
}

func okHandoffArg(p *pool.Pool) {
	t := p.Get()
	deliver(t.Addr, t) // ok: reading a field while handing off is fine
}

func okReturn(p *pool.Pool) *pool.Packet {
	t := p.Get()
	return t // ok: the caller now owns the loan
}

func okPinThenPark(p *pool.Pool, r *ring) {
	t := p.Get()
	t.Pin()
	r.parked = t // ok: Pin detached it from the pool
}

func okEarlyReturnRelease(p *pool.Pool, lost bool) {
	t := p.Get()
	if lost {
		t.Release()
		return
	}
	send(t) // ok: the release is on the early-return path only
}

func okUntracked(p *pool.Pool) {
	u := p.GetPlain()
	u.Addr = 5 // ok: Plain is not a //tca:pooled type
}

// keeper outlives any one packet.
type keeper struct {
	data  []byte
	datas [][]byte
}

var lastPayload []byte

func payloadField(t *pool.Packet, k *keeper) {
	k.data = t.Data // want `pooled payload t.Data stored in field data`
}

func payloadSliceAlias(t *pool.Packet, k *keeper) {
	d := t.Data[2:]
	k.datas = append(k.datas, d) // want `pooled payload d appended to a slice`
}

func payloadIndex(t *pool.Packet, k *keeper) {
	k.datas[0] = t.Data[:4] // want `pooled payload t.Data\[:4\] stored in a slice or map`
}

func payloadGlobal(t *pool.Packet) {
	lastPayload = t.Data // want `pooled payload t.Data stored in package-level var lastPayload`
}

func payloadLiteral(t *pool.Packet) keeper {
	return keeper{data: t.Data} // want `pooled payload t.Data stored in a composite literal`
}

func payloadClosure(t *pool.Packet, run func(func())) {
	run(func() { // want `pooled payload t.Data captured by a closure`
		lastPayload = append(lastPayload[:0], t.Data...)
	})
}

func okPayloadCopy(t *pool.Packet, k *keeper) {
	k.data = append(k.data[:0], t.Data...) // ok: the bytes are copied
	copy(k.data, t.Data)                   // ok: the bytes are copied
}

func okPayloadLocal(t *pool.Packet) byte {
	d := t.Data
	return d[0] // ok: read while the packet is held
}

func okPayloadPinned(t *pool.Packet, k *keeper) {
	t.Pin()
	k.data = t.Data // ok: a pinned packet is never recycled
}
