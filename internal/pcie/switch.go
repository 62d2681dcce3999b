package pcie

import (
	"fmt"

	"tca/internal/freelist"
	"tca/internal/obsv"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/units"
)

// SwitchParams tunes a PCIe switch model.
type SwitchParams struct {
	// ForwardLatency is the store-and-forward delay per packet through
	// the crossbar (typical silicon: 100–150 ns).
	ForwardLatency units.Duration
	// IngressDrain is how long an arriving packet occupies the ingress
	// buffer slot before the flow-control credit returns.
	IngressDrain units.Duration
}

// DefaultSwitchParams matches the latency class of the PCIe switch embedded
// in the Sandy Bridge-EP socket (§III-C).
var DefaultSwitchParams = SwitchParams{
	ForwardLatency: 120 * units.Nanosecond,
	IngressDrain:   8 * units.Nanosecond,
}

// Switch is a PCIe switch: one upstream port toward the root complex and
// any number of downstream ports, each owning an address window. Memory
// requests route downstream by address window and upstream by default;
// completions route by requester ID, learned from the requests that passed
// through (and optionally pre-registered).
type Switch struct {
	eng      *sim.Engine
	name     string
	params   SwitchParams
	up       *Port
	down     []*Port
	windows  AddressMap // window -> *Port
	idRoutes map[DeviceID]*Port
	// egress holds each port's "egress <label>" span note, built once.
	egress map[*Port]string

	// comp is the switch's host-time attribution tag (0 when unprofiled).
	comp sim.CompID

	// fwdFree recycles crossbar-forward actions so steady-state forwarding
	// allocates nothing.
	fwdFree freelist.List[switchFwdAction]

	// rec records crossbar-arrival span events for traced packets (nil
	// when uninstrumented).
	rec *obsv.Recorder
	// mForwards counts packets through the crossbar (nil when
	// uninstrumented).
	mForwards *obsv.Counter
}

// Instrument attaches the switch to an observability set: traced packets
// record a StageSwitch event on crossbar entry, so host-switch forwarding
// latency separates from the adjacent link wire time in breakdowns.
func (s *Switch) Instrument(set *obsv.Set) {
	s.rec = set.Recorder()
	s.mForwards = set.Registry().Counter("switch_forwards", s.name)
}

// Profile registers the switch with an engine profiler so crossbar-forward
// events charge host time to it. Safe with a nil profiler.
func (s *Switch) Profile(p *prof.Profiler) {
	s.comp = p.Component(s.name)
}

// NewSwitch creates a switch. The upstream port (toward the RC) is created
// immediately; downstream ports are added with AddDownstream.
func NewSwitch(eng *sim.Engine, name string, params SwitchParams) *Switch {
	s := &Switch{
		eng:      eng,
		name:     name,
		params:   params,
		idRoutes: make(map[DeviceID]*Port),
		egress:   make(map[*Port]string),
	}
	s.up = NewPort(s, "up", RoleEP)
	s.egress[s.up] = "egress " + s.up.Label
	return s
}

// DevName implements Device.
func (s *Switch) DevName() string { return s.name }

// Upstream returns the port that connects toward the root complex.
func (s *Switch) Upstream() *Port { return s.up }

// AddDownstream creates a downstream port owning the address window w.
// Requests targeting w route out of this port.
func (s *Switch) AddDownstream(label string, w Range) (*Port, error) {
	p := NewPort(s, label, RoleRC)
	if err := s.windows.Add(w, p); err != nil {
		return nil, fmt.Errorf("switch %s: %w", s.name, err)
	}
	s.down = append(s.down, p)
	s.egress[p] = "egress " + label
	return p, nil
}

// MustAddDownstream is AddDownstream for static topologies.
func (s *Switch) MustAddDownstream(label string, w Range) *Port {
	p, err := s.AddDownstream(label, w)
	if err != nil {
		panic(fmt.Sprintf("switch %s: MustAddDownstream: %v", s.name, err))
	}
	return p
}

// Accept implements Device: route the packet and forward it after the
// crossbar latency.
func (s *Switch) Accept(now sim.Time, t *TLP, in *Port) units.Duration {
	out := s.route(t, in)
	s.mForwards.Inc()
	if s.rec != nil && t.Txn != 0 {
		s.rec.Record(obsv.Event{At: now, Txn: t.Txn, Stage: obsv.StageSwitch,
			Where: s.name, Port: in.Label, Addr: uint64(t.Addr), Note: s.egress[out]})
	}
	a := s.fwdFree.Get()
	a.s, a.out, a.t = s, out, t
	s.eng.AfterAction(s.comp, s.params.ForwardLatency, a)
	return s.params.IngressDrain
}

// switchFwdAction is the pooled crossbar-forward event: after the forward
// latency it sends the packet out of the routed egress and returns itself
// to the switch's free list.
type switchFwdAction struct {
	s   *Switch
	out *Port
	t   *TLP
}

// RunAction implements sim.Action.
func (a *switchFwdAction) RunAction(now sim.Time) {
	s, out, t := a.s, a.out, a.t
	s.fwdFree.Put(a)
	out.Send(now, t)
}

// route picks the egress port for t arriving on in.
func (s *Switch) route(t *TLP, in *Port) *Port {
	switch t.Kind {
	case MWr, MRd:
		if t.Kind == MRd {
			// Learn the return path for this requester's completions.
			s.idRoutes[t.Requester] = in
		}
		if tgt, _, ok := s.windows.Lookup(t.Addr); ok {
			out := tgt.(*Port)
			if out == in {
				panic(fmt.Sprintf("switch %s: packet %v would route back out its ingress %v", s.name, t, in))
			}
			return out
		}
		if in == s.up {
			panic(fmt.Sprintf("switch %s: downstream-bound %v matches no window", s.name, t))
		}
		return s.up
	case CplD, Cpl:
		if out, ok := s.idRoutes[t.Requester]; ok {
			return out
		}
		if in != s.up {
			return s.up
		}
		panic(fmt.Sprintf("switch %s: completion for unknown requester %d from upstream", s.name, t.Requester))
	default:
		panic(fmt.Sprintf("switch %s: unroutable TLP kind %v", s.name, t.Kind))
	}
}
