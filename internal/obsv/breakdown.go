package obsv

import (
	"fmt"
	"io"
	"sort"

	"tca/internal/units"
)

// Hop is one segment of a transaction's per-hop latency breakdown: the
// time between two consecutive span events. Summing every hop of a
// transaction reproduces its end-to-end latency exactly — the
// self-consistency property the paper's Fig. 9–10 decompositions rely on.
type Hop struct {
	From Event
	To   Event
	Dur  units.Duration
}

// Label names the hop like "peach2-0:route[E] -> link:ring0-1".
func (h Hop) Label() string {
	return fmt.Sprintf("%s -> %s", endpoint(h.From), endpoint(h.To))
}

func endpoint(e Event) string {
	s := e.Where + ":" + e.Stage.String()
	if e.Port != "" {
		s += "[" + e.Port + "]"
	}
	return s
}

// Breakdown turns one transaction's events into its hop sequence. Events
// are sorted by time (stable on recording order for ties), and each hop is
// the delta to the previous event. An empty or single-event transaction has
// no hops.
func Breakdown(events []Event) []Hop {
	if len(events) < 2 {
		return nil
	}
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	hops := make([]Hop, 0, len(sorted)-1)
	for i := 1; i < len(sorted); i++ {
		hops = append(hops, Hop{
			From: sorted[i-1],
			To:   sorted[i],
			Dur:  sorted[i].At.Sub(sorted[i-1].At),
		})
	}
	return hops
}

// TotalLatency sums a breakdown — by construction equal to last.At minus
// first.At of the transaction's events.
func TotalLatency(hops []Hop) units.Duration {
	var total units.Duration
	for _, h := range hops {
		total += h.Dur
	}
	return total
}

// WriteBreakdown renders a hop table: cumulative timestamp, per-hop delta,
// and the hop label.
func WriteBreakdown(w io.Writer, hops []Hop) {
	if len(hops) == 0 {
		fmt.Fprintln(w, "  (no hops recorded)")
		return
	}
	width := 0
	for _, h := range hops {
		if l := len(h.Label()); l > width {
			width = l
		}
	}
	base := hops[0].From.At
	fmt.Fprintf(w, "  %12s  %-*s  %s\n", "at", width, "hop", "delta")
	for _, h := range hops {
		fmt.Fprintf(w, "  %12v  %-*s  +%v\n", h.To.At.Sub(base), width, h.Label(), h.Dur)
	}
	fmt.Fprintf(w, "  %12s  %-*s  =%v\n", "total", width, "", TotalLatency(hops))
}
