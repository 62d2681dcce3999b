package bench

import (
	"tca/internal/obsv/critpath"
	"tca/internal/tcanet"
)

// PingPongModel derives the paper's analytical Fig. 10 model from reference
// measurements on the same parameters: the loopback minimum, the marginal
// ring forwarding hop, and the host software cost per leg (uncached store
// plus poll-loop detection).
func PingPongModel(prm tcanet.Params) critpath.Model {
	host := prm.Host
	if host.StoreLatency == 0 {
		host = tcanet.DefaultParams.Host
	}
	return critpath.Model{
		MinPingPongUS:    MeasureLoopbackPIO(prm).Microseconds(),
		PerHopNS:         MeasurePIOLatency(prm, 4, 0, 2).Nanoseconds() - MeasurePIOLatency(prm, 4, 0, 1).Nanoseconds(),
		SoftwareNSPerLeg: (host.StoreLatency + host.PollDetectLatency).Nanoseconds(),
	}
}

// RingForwardHops counts the forwarding (intermediate-chip) hops of the
// shortest arc from src to dst on an n-node ring — the extraHops input to
// Model.PredictUS.
func RingForwardHops(n, src, dst int) int {
	d := dst - src
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	if d <= 1 {
		return 0
	}
	return d - 1
}
