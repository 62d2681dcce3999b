package bench

import (
	"bytes"
	"fmt"
	"testing"
)

// TestTraceDeterminism runs each traced scenario twice on fresh engines and
// asserts the two runs are byte-identical: the same event sequence, the same
// hop breakdown, the same end-to-end latency, and the same metrics snapshot.
// This is the executable form of the invariant tcavet's simdeterminism
// analyzer enforces statically — if a map iteration or wall-clock read
// sneaks into the scheduling path, the serialized transcripts diverge here.
func TestTraceDeterminism(t *testing.T) {
	pp := func(n, src, dst, rounds int, spec string, seed int64) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			r := observedRig(t, n, Attach{Fault: spec, Seed: seed})
			return serializeRun(t, r, pingPong(t, r, src, dst, rounds))
		}
	}
	scenarios := []struct {
		name string
		run  func(*testing.T) []byte
	}{
		{"ping-pong", pp(4, 0, 2, 1, "", 0)},
		{"forward-chain", func(t *testing.T) []byte {
			r := observedRig(t, 8, Attach{})
			return serializeRun(t, r, r.StoreStream(1, 5, 1, pioFlag))
		}},
		// Fault scenarios must be just as reproducible: the injector's rand
		// stream is seeded and consumed only at schedule-determined points,
		// so a mid-run link cut, DLL replays, and a live failover replay
		// byte-identically — the acceptance criterion for `-fault`.
		{"fault-linkdown-failover", pp(4, 0, 2, 10, "linkdown:1e:12us", 7)},
		{"fault-lossy-cable", pp(4, 0, 1, 6, "corrupt:0.2,drop:0.05", 42)},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			first := sc.run(t)
			second := sc.run(t)
			if !bytes.Equal(first, second) {
				t.Errorf("two runs of %s produced different transcripts:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					sc.name, firstDiff(first, second), firstDiff(second, first))
			}
		})
	}
}

// serializeRun flattens a traced run — spans, events, hops, latency and the
// full metrics snapshot — into a canonical byte transcript.
func serializeRun(t *testing.T, r *Rig, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "end-to-end=%v\n", res.EndToEnd)
	for _, sp := range r.Spans(res.Txns) {
		fmt.Fprintf(&buf, "span txn=%d total=%v\n", sp.Txn, sp.Total)
		for _, ev := range sp.Events {
			fmt.Fprintf(&buf, "  event %+v\n", ev)
		}
		for _, hop := range sp.Hops {
			fmt.Fprintf(&buf, "  hop %+v\n", hop)
		}
	}
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("serializing snapshot: %v", err)
	}
	return buf.Bytes()
}

// firstDiff returns the line of a where the two transcripts first diverge,
// so a failure points at the offending event rather than dumping kilobytes.
func firstDiff(a, b []byte) []byte {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return la[i]
		}
	}
	return []byte("(transcripts identical up to length)")
}
