package tcanet

import (
	"errors"
	"fmt"

	"tca/internal/pcie"
	"tca/internal/peach2"
)

// Failover: one of PEACH2's design advantages over the NTB (§V) is that
// "the link state with the other node has no impact on the connection
// between the host and the PEACH2 chip" — a dead cable degrades the ring
// into a line instead of rebooting hosts. The NIOS management controllers
// detect the dead link (replay exhaustion in the data-link layer) and the
// management plane reprograms the Fig. 5 registers; ringRoutesAvoidingIn
// computes those replacement rules and SubCluster.RerouteAvoidingCut
// applies them — at build time for static avoidance or mid-run through
// EnableAutoFailover (faultinject.go).

// ErrRouteRulesOverflow tags the failure mode where a topology's avoidance
// rules do not fit the eight Fig. 5 register sets. Failover degrades
// gracefully on it (leaves routes untouched and falls back to the host/IB
// path) instead of crashing the chip model.
var ErrRouteRulesOverflow = errors.New("tcanet: avoidance rules exceed the route register file")

// ringRoutesAvoidingIn computes node i's routing rules when the eastward
// cable out of node cut (the link cut→cut+1) must not be used: every
// destination routes along the surviving arc. With a single cut the ring
// is a line, so exactly one direction works for each destination. Returns
// an error wrapping ErrRouteRulesOverflow when the line's rules do not fit
// the register file.
//
// The ring is the k nodes [base, base+k) of the plan, so in a dual ring
// each ring fails over independently and every chip keeps its extra
// rules (the Port-S coupling) intact. i and cut are global node IDs
// inside the ring; extra rules count against the register budget.
func (p Plan) ringRoutesAvoidingIn(base, k, i, cut int, extra []peach2.RouteRule) ([]peach2.RouteRule, error) {
	local, cutLocal := i-base, cut-base
	if local < 0 || local >= k || cutLocal < 0 || cutLocal >= k {
		panic(fmt.Sprintf("tcanet: node %d or cut %d outside ring [%d, %d)", i, cut, base, base+k))
	}
	var east, west []int
	for d := 0; d < k; d++ {
		if d == local {
			continue
		}
		// Going east from local to d traverses east-links local,
		// local+1, ..., d-1 (mod k); the path is usable iff the cut link
		// is not among them.
		de := (d - local + k) % k
		cutPos := (cutLocal - local + k) % k
		if cutPos >= de {
			east = append(east, base+d)
		} else {
			west = append(west, base+d)
		}
	}
	mask := ^pcie.Addr(p.windowSize - 1)
	rules := append([]peach2.RouteRule(nil), extra...)
	for _, r := range idRanges(east) {
		rules = append(rules, peach2.RouteRule{Mask: mask, Lower: p.NodeWindow(r[0]).Base, Upper: p.NodeWindow(r[1]).Base, Out: peach2.PortE})
	}
	for _, r := range idRanges(west) {
		rules = append(rules, peach2.RouteRule{Mask: mask, Lower: p.NodeWindow(r[0]).Base, Upper: p.NodeWindow(r[1]).Base, Out: peach2.PortW})
	}
	if len(rules) > peach2.MaxRouteRules {
		return nil, fmt.Errorf("%w: node %d needs %d rules for cut %d (max %d)",
			ErrRouteRulesOverflow, i, len(rules), cut, peach2.MaxRouteRules)
	}
	return rules, nil
}

// sCouplingRule returns chip i's Port-S rule in a dual ring: the other
// ring's whole window range exits south.
func (sc *SubCluster) sCouplingRule(i int) []peach2.RouteRule {
	k := sc.ringSize
	ring := i / k
	otherBase := (1 - ring) * k
	mask := ^pcie.Addr(sc.plan.windowSize - 1)
	return []peach2.RouteRule{{
		Mask:  mask,
		Lower: sc.plan.NodeWindow(otherBase).Base,
		Upper: sc.plan.NodeWindow(otherBase + k - 1).Base,
		Out:   peach2.PortS,
	}}
}

// RerouteAvoidingCut reprograms the affected ring to avoid the eastward
// cable out of node cut — the management-plane response to a dead link. In
// a dual ring only the cut node's ring is reprogrammed and every chip
// keeps its Port-S coupling rule. The update is all-or-nothing: the rules
// for every chip are computed (and checked against the register file)
// before any chip is touched, so an overflow leaves the fabric in its
// previous state. Traffic parked on dead egresses is re-injected by each
// chip as its routes are rewritten.
func (sc *SubCluster) RerouteAvoidingCut(cut int) error {
	if cut < 0 || cut >= len(sc.chips) {
		panic(fmt.Sprintf("tcanet: cut link %d outside sub-cluster of %d", cut, len(sc.chips)))
	}
	k := sc.ringSize
	if k == 0 {
		k = len(sc.chips) // single ring built before the field existed
	}
	base := cut / k * k
	rules := make([][]peach2.RouteRule, k)
	for li := 0; li < k; li++ {
		i := base + li
		var extra []peach2.RouteRule
		if sc.dualRing {
			extra = sc.sCouplingRule(i)
		}
		r, err := sc.plan.ringRoutesAvoidingIn(base, k, i, cut, extra)
		if err != nil {
			return err
		}
		rules[li] = r
	}
	for li := 0; li < k; li++ {
		sc.chips[base+li].SetRoutes(rules[li])
	}
	return nil
}
