package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer keeps in-memory spans around the calls the benchmark makes into
// the simulator. All spans are opened and closed on the benchmark's one
// client goroutine. A nil *tracer records nothing, so the untraced run
// executes the same code with one nil check per call.
type tracer struct {
	epoch  time.Time
	spans  []span
	counts map[string]int64
}

// span is one traced interval. Parent is the index of the enclosing span,
// or -1 for a root; Unit identifies the workload unit (spec, job,
// experiment) the span belongs to, or -1.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Unit    int64  `json:"unit"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its id; -1 when tracing is off.
func (t *tracer) begin(name string, parent int, unit int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.epoch)), EndNS: -1, Parent: parent, Unit: unit})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.epoch))
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, unit int64, fn func()) {
	id := t.begin(name, parent, unit)
	fn()
	t.end(id)
}

// count adds n to a counter recorded at the same boundary as a span.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.counts[name] += n
}

// durations returns the durations in seconds of every closed span named
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// children indexes every closed span by its parent.
func (t *tracer) children() [][]int {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// covered returns how many nanoseconds of a span its children cover.
// Children may overlap (a tcad request span stays open while the next
// one is submitted), so the union of their intervals is taken.
func (t *tracer) covered(kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{t.spans[k].StartNS, t.spans[k].EndNS})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64 = 0, -1
	for _, v := range iv {
		if v[0] > hi {
			total += v[1] - v[0]
			hi = v[1]
		} else if v[1] > hi {
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}

// coverage returns the share of span id's duration its children cover.
func (t *tracer) coverage(id int) float64 {
	s := t.spans[id]
	if s.EndNS <= s.StartNS {
		return 0
	}
	return float64(t.covered(t.children()[id])) / float64(s.EndNS-s.StartNS)
}

// selfRow is one span name's aggregate: calls, total and self time.
type selfRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it its children cover.
func (t *tracer) selfTimes() []selfRow {
	kids := t.children()
	idx := map[string]int{}
	var rows []selfRow
	for i, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		k, ok := idx[s.Name]
		if !ok {
			k = len(rows)
			idx[s.Name] = k
			rows = append(rows, selfRow{Name: s.Name})
		}
		d := s.EndNS - s.StartNS
		rows[k].Calls++
		rows[k].TotalMS += float64(d) / 1e6
		rows[k].SelfMS += float64(d-t.covered(kids[i])) / 1e6
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// write stores the spans, counts and self-time table as one JSON file.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
		Self   []selfRow        `json:"self_time"`
	}{t.spans, t.counts, t.selfTimes()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
