package peach2

import (
	"fmt"
	"strings"

	"tca/internal/fifo"
	"tca/internal/sim"
	"tca/internal/units"
)

// maxEvents bounds the NIOS management log; older entries are evicted.
const maxEvents = 256

// NIOS models the embedded management controller: "the controller works
// only to monitor and manage PEARL, except for the packet transfer. Thus, a
// small, low-power controller is sufficient" (§III-D). It never touches the
// data path; it periodically samples link state and keeps an event log the
// operator would read over the board's Gigabit Ethernet / RS-232C side
// channels.
type NIOS struct {
	chip *Chip

	running  bool
	interval units.Duration
	scans    uint64
	lastUp   [4]bool
	events   fifo.Queue[Event] // the newest maxEvents entries, oldest first

	// onDeadLink fires when a port's data-link layer declares its cable
	// dead (replay exhaustion) — the hook the failover controller uses to
	// reprogram routes mid-run.
	onDeadLink func(now sim.Time, port PortID)
	failovers  uint64
}

// Event is one management-log entry.
type Event struct {
	At   sim.Time
	What string
}

// Status is a management snapshot.
type Status struct {
	Scans     uint64
	PortUp    [4]bool
	Forwarded [numPorts]uint64
	DMAChains uint64
	Events    int
	Failovers uint64
}

func newNIOS(c *Chip) *NIOS {
	return &NIOS{chip: c}
}

// Start begins periodic link monitoring.
func (n *NIOS) Start(interval units.Duration) {
	if interval <= 0 {
		panic(fmt.Sprintf("peach2 %s: NIOS interval %v", n.chip.name, interval))
	}
	if n.running {
		return
	}
	n.running = true
	n.interval = interval
	n.chip.eng.AfterComp(n.chip.comp, interval, n.scan)
}

// stop halts monitoring after the next scan.
func (n *NIOS) stop() { n.running = false }

func (n *NIOS) scan() {
	if !n.running {
		return
	}
	n.scans++
	for p := PortN; p <= PortS; p++ {
		up := n.chip.PortUp(p)
		if up != n.lastUp[p] {
			n.logEvent(fmt.Sprintf("port %v link %s", p, linkWord(up)))
			n.lastUp[p] = up
		}
	}
	n.chip.eng.AfterComp(n.chip.comp, n.interval, n.scan)
}

// linkDead is the chip's dead-link notification: log it and hand it to the
// failover controller. Unlike the periodic scan this fires exactly at the
// replay-exhaustion instant — the health monitor's fast path.
func (n *NIOS) linkDead(now sim.Time, port PortID) {
	n.logEvent(fmt.Sprintf("port %v link dead (replay exhausted)", port))
	n.lastUp[port] = false
	if n.onDeadLink != nil {
		n.onDeadLink(now, port)
	}
}

// SetDeadLinkHandler registers the failover controller's callback.
func (n *NIOS) SetDeadLinkHandler(fn func(now sim.Time, port PortID)) {
	n.onDeadLink = fn
}

// NoteFailover records a completed route reprogram around a cut link.
func (n *NIOS) NoteFailover(cut int) {
	n.failovers++
	n.logEvent(fmt.Sprintf("failover: routes reprogrammed around cut ring link %d", cut))
}

// NoteFailoverAbort records a failover that could not be computed (for
// example the avoidance rules overflow the route registers); traffic for
// the unreachable nodes is left to the host/IB fallback path.
func (n *NIOS) NoteFailoverAbort(err error) {
	n.logEvent(fmt.Sprintf("failover aborted: %v", err))
}

func linkWord(up bool) string {
	if up {
		return "up"
	}
	return "down"
}

func (n *NIOS) logEvent(what string) {
	if n.events.Len() == maxEvents {
		n.events.Pop()
	}
	n.events.Push(Event{At: n.chip.eng.Now(), What: what})
}

// Status samples the chip — the management "GetStatus" command.
func (n *NIOS) Status() Status {
	var s Status
	s.Scans = n.scans
	for p := PortN; p <= PortS; p++ {
		s.PortUp[p] = n.chip.PortUp(p)
	}
	s.Forwarded = n.chip.forwarded
	s.DMAChains = n.chip.dmac.chains
	s.Events = n.events.Len()
	s.Failovers = n.failovers
	return s
}

// Events returns a copy of the management log, oldest first.
func (n *NIOS) Events() []Event {
	out := make([]Event, n.events.Len())
	for i := range out {
		out[i] = *n.events.At(i)
	}
	return out
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

// execute processes a management-console command line as the board's
// RS-232C / Gigabit Ethernet side channel would ("Gigabit Ethernet and
// RS-232C are equipped for communication with the NIOS processor",
// §III-D). Supported commands: status, counters, log, routes, help.
func (n *NIOS) execute(cmd string) (string, error) {
	switch strings.TrimSpace(cmd) {
	case "help", "":
		return "commands: status counters log routes help", nil
	case "status":
		st := n.Status()
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s up=%v scans=%d", n.chip.name, st.PortUp, st.Scans)
		if n.chip.dmac.Busy() {
			sb.WriteString(" dmac=busy")
		} else {
			sb.WriteString(" dmac=idle")
		}
		return sb.String(), nil
	case "counters":
		st := n.chip.Stats()
		return fmt.Sprintf("forwarded N=%d E=%d W=%d S=%d converted=%d acksSent=%d acksRecv=%d chains=%d tlps=%d",
			st.Forwarded[PortN], st.Forwarded[PortE], st.Forwarded[PortW], st.Forwarded[PortS],
			st.Converted, st.AcksSent, st.AcksRecv, st.DMAChains, st.DMATLPs), nil
	case "log":
		var sb strings.Builder
		for _, e := range n.Events() {
			fmt.Fprintf(&sb, "[%v] %s\n", e.At, e.What)
		}
		return sb.String(), nil
	case "routes":
		var sb strings.Builder
		for i, r := range n.chip.Routes() {
			fmt.Fprintf(&sb, "rule %d: mask %v [%v, %v] -> %v\n", i, r.Mask, r.Lower, r.Upper, r.Out)
		}
		return sb.String(), nil
	default:
		return "", fmt.Errorf("peach2 %s: unknown console command %q", n.chip.name, cmd)
	}
}
