package peach2

import "tca/internal/sim"

// NIOS models the embedded management controller: "the controller works
// only to monitor and manage PEARL, except for the packet transfer. Thus, a
// small, low-power controller is sufficient" (§III-D). It never touches the
// data path: it publishes link state through the status register and hands
// a cable its data-link layer declares dead to the failover controller.
type NIOS struct {
	chip *Chip

	// onDeadLink fires when a port's data-link layer declares its cable
	// dead (replay exhaustion) — the hook the failover controller uses to
	// reprogram routes mid-run.
	onDeadLink func(now sim.Time, port PortID)
}

func newNIOS(c *Chip) *NIOS {
	return &NIOS{chip: c}
}

// linkDead is the chip's dead-link notification: hand it to the failover
// controller. It fires exactly at the replay-exhaustion instant — the
// health monitor's fast path.
func (n *NIOS) linkDead(now sim.Time, port PortID) {
	if n.onDeadLink != nil {
		n.onDeadLink(now, port)
	}
}

// SetDeadLinkHandler registers the failover controller's callback.
func (n *NIOS) SetDeadLinkHandler(fn func(now sim.Time, port PortID)) {
	n.onDeadLink = fn
}

// statusWord packs link state into the RegStatus register image.
func (n *NIOS) statusWord() uint64 {
	var w uint64
	for p := PortN; p <= PortS; p++ {
		if n.chip.PortUp(p) {
			w |= 1 << uint(p)
		}
	}
	if n.chip.dmac.Busy() {
		w |= 1 << 8
	}
	return w
}
