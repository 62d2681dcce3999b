// Package memory provides sparse simulated RAM. Host DRAM, GPU GDDR and
// PEACH2's internal SRAM/DDR3 all build on it.
package memory

import (
	"fmt"

	"tca/internal/units"
)

const pageShift = 12 // 4 KiB pages, matching PCIe/GPUDirect page granularity
const pageSize = 1 << pageShift

type page [pageSize]byte

// RAM is a sparse byte-addressable memory. Pages materialize on first write,
// so modelling a 512 GiB BAR window costs nothing until bytes actually land.
// Unwritten bytes read as zero.
type RAM struct {
	size  units.ByteSize
	pages map[uint64]*page
}

// NewRAM creates a RAM of the given capacity.
func NewRAM(size units.ByteSize) *RAM {
	if size <= 0 {
		panic(fmt.Sprintf("memory: non-positive RAM size %d", size))
	}
	return &RAM{size: size, pages: make(map[uint64]*page)}
}

func (r *RAM) check(off uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("memory: negative length %d", n)
	}
	if off+uint64(n) > uint64(r.size) || off+uint64(n) < off {
		return fmt.Errorf("memory: access [0x%x, 0x%x) outside RAM of %v", off, off+uint64(n), r.size)
	}
	return nil
}

// Write stores data at byte offset off.
func (r *RAM) Write(off uint64, data []byte) error {
	if err := r.check(off, len(data)); err != nil {
		return err
	}
	for len(data) > 0 {
		pi := off >> pageShift
		po := off & (pageSize - 1)
		p := r.pages[pi]
		if p == nil {
			p = new(page)
			r.pages[pi] = p
		}
		n := copy(p[po:], data)
		data = data[n:]
		off += uint64(n)
	}
	return nil
}

// Read fills buf from byte offset off.
func (r *RAM) Read(off uint64, buf []byte) error {
	if err := r.check(off, len(buf)); err != nil {
		return err
	}
	for len(buf) > 0 {
		pi := off >> pageShift
		po := off & (pageSize - 1)
		var n int
		if p := r.pages[pi]; p != nil {
			n = copy(buf, p[po:])
		} else {
			n = pageSize - int(po)
			if n > len(buf) {
				n = len(buf)
			}
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		off += uint64(n)
	}
	return nil
}

// ReadBytes is Read into a freshly allocated buffer.
func (r *RAM) ReadBytes(off uint64, n units.ByteSize) ([]byte, error) {
	buf := make([]byte, n)
	if err := r.Read(off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
