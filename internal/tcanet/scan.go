package tcanet

import (
	"sort"

	"tca/internal/pcie"
)

// enumerable is implemented by devices that expose their ports to topology
// walks — what a BIOS bus scan sees. Devices that keep their single port
// private are still *discovered* (they sit at the far end of a link); they
// just terminate the walk.
type enumerable interface {
	Ports() []*pcie.Port
}

// enumerate walks the fabric breadth-first from start's device and returns
// every reachable device, in deterministic (name-sorted per layer)
// discovery order. It is the model of the boot-time scan §V discusses: on
// an NTB system the scan crosses into the peer host (coupling their
// lifetimes), while a PEACH2 port N scan stops at the chip. No simulation
// path runs the scan; the topology tests compare the two fabrics with it.
func enumerate(start pcie.Device) []pcie.Device {
	seen := map[pcie.Device]bool{start: true}
	order := []pcie.Device{start}
	frontier := []pcie.Device{start}
	for len(frontier) > 0 {
		var next []pcie.Device
		for _, dev := range frontier {
			en, ok := dev.(enumerable)
			if !ok {
				continue
			}
			var found []pcie.Device
			for _, p := range en.Ports() {
				peer := p.Peer()
				if peer == nil {
					continue
				}
				if d := peer.Owner(); !seen[d] {
					seen[d] = true
					found = append(found, d)
				}
			}
			sort.Slice(found, func(i, j int) bool { return found[i].DevName() < found[j].DevName() })
			order = append(order, found...)
			next = append(next, found...)
		}
		frontier = next
	}
	return order
}
