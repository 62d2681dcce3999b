// Package ntb models the non-transparent bridge of §V — the related-work
// alternative to PEACH2 for PCIe inter-node communication. An NTB is a
// special downstream port of a PCIe switch that "behaves as two different
// EPs" and performs address translation between the two sides through a
// lookup table. The package exists for the ablation the paper implies:
//
//   - translation is a *table search* per packet, where PEACH2's routing is
//     a masked compare against bound registers (§III-E);
//   - the NTB couples the two hosts' fates: "disconnection of the node
//     causes a system reboot", whereas PEACH2's independent ports keep the
//     host-chip link alive when a neighbour goes away;
//   - one bridge joins exactly two hosts, so sub-clusters need a bridge per
//     pair instead of PEACH2's ring.
package ntb

import (
	"fmt"

	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// Params is the bridge's cost model.
type Params struct {
	// ForwardLatency is the switch crossbar time per packet.
	ForwardLatency units.Duration
	// LookupLatencyPerEntry is the translation table search cost per
	// entry scanned — the price of table-based translation.
	LookupLatencyPerEntry units.Duration
	// TranslateLatency is the address rewrite after a hit.
	TranslateLatency units.Duration
	// LUTSize bounds the translation table (real NTBs have 8–64
	// entries).
	LUTSize int
}

// DefaultParams matches a PLX-class switch with NTB.
var DefaultParams = Params{
	ForwardLatency:        150 * units.Nanosecond,
	LookupLatencyPerEntry: 8 * units.Nanosecond,
	TranslateLatency:      16 * units.Nanosecond,
	LUTSize:               32,
}

// Side identifies the bridge's two faces.
type Side int

// Bridge sides.
const (
	SideA Side = iota
	SideB
)

func (s Side) String() string {
	if s == SideA {
		return "A"
	}
	return "B"
}

func (s Side) other() Side { return 1 - s }

// Mapping is one LUT entry: packets hitting From on one side exit the other
// side at To+offset.
type Mapping struct {
	From pcie.Range
	To   pcie.Addr
}

// Bridge is the NTB device. Each side exposes an endpoint port to its
// host's switch tree.
type Bridge struct {
	eng    *sim.Engine
	name   string
	params Params
	ports  [2]*pcie.Port
	lut    [2][]Mapping

	translated [2]uint64
	rejected   uint64
}

// New creates a bridge.
func New(eng *sim.Engine, name string, params Params) *Bridge {
	if params.LUTSize <= 0 {
		panic(fmt.Sprintf("ntb %s: LUT size %d", name, params.LUTSize))
	}
	b := &Bridge{eng: eng, name: name, params: params}
	b.ports[SideA] = pcie.NewPort(b, "A", pcie.RoleEP)
	b.ports[SideB] = pcie.NewPort(b, "B", pcie.RoleEP)
	return b
}

// DevName implements pcie.Device.
func (b *Bridge) DevName() string { return b.name }

// Port returns the endpoint port of one side.
func (b *Bridge) Port(s Side) *pcie.Port { return b.ports[s] }

// AddMapping installs a LUT entry translating from-side window fr to the
// other side's base to.
func (b *Bridge) AddMapping(from Side, fr pcie.Range, to pcie.Addr) error {
	if len(b.lut[from]) >= b.params.LUTSize {
		return fmt.Errorf("ntb %s: LUT full (%d entries) — a real NTB limitation", b.name, b.params.LUTSize)
	}
	if fr.Size == 0 {
		return fmt.Errorf("ntb %s: empty mapping window", b.name)
	}
	for _, m := range b.lut[from] {
		if m.From.Overlaps(fr) {
			return fmt.Errorf("ntb %s: mapping %v overlaps %v", b.name, fr, m.From)
		}
	}
	b.lut[from] = append(b.lut[from], Mapping{From: fr, To: to})
	return nil
}

// sideOf maps an arrival port to its side.
func (b *Bridge) sideOf(p *pcie.Port) Side {
	if p == b.ports[SideA] {
		return SideA
	}
	return SideB
}

// Accept implements pcie.Device: translate and forward to the other side.
func (b *Bridge) Accept(now sim.Time, t *pcie.TLP, in *pcie.Port) units.Duration {
	from := b.sideOf(in)
	to := from.other()
	switch t.Kind {
	case pcie.MWr, pcie.MRd:
		// Table search: linear scan, each entry costs lookup time.
		var hit *Mapping
		scanned := 0
		for i := range b.lut[from] {
			scanned++
			if b.lut[from][i].From.Contains(t.Addr) {
				hit = &b.lut[from][i]
				break
			}
		}
		cost := b.params.ForwardLatency +
			units.Duration(scanned)*b.params.LookupLatencyPerEntry +
			b.params.TranslateLatency
		if hit == nil {
			b.rejected++
			panic(fmt.Sprintf("ntb %s: no LUT entry for %v from side %v", b.name, t.Addr, from))
		}
		out := *t
		out.Addr = hit.To + (t.Addr - hit.From.Base)
		b.translated[from]++
		b.eng.After(cost, func() {
			b.ports[to].Send(b.eng.Now(), &out)
		})
		return 8 * units.Nanosecond
	case pcie.CplD, pcie.Cpl:
		// Completions cross back untranslated (routed by requester ID).
		b.eng.After(b.params.ForwardLatency, func() {
			b.ports[to].Send(b.eng.Now(), t)
		})
		return 0
	default:
		panic(fmt.Sprintf("ntb %s: unhandled %v", b.name, t.Kind))
	}
}
