package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans nest: parent is the index of
// the enclosing span (-1 for a round's root), and every span of one round
// shares the round's id.
type span struct {
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory. A nil tracer records nothing, so
// the re-drive runs untraced through the same code.
type tracer struct {
	t0     time.Time
	round  int
	spans  []span
	stack  []int
	counts map[string]float64
	// injectMs holds every traced inject.RunFrom duration, for percentiles.
	injectMs []float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Round: t.round, Name: name, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one, and returns its
// duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("kfibench: span %s closed out of order", s.Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
	return float64(s.End-s.Start) / 1e9
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// selfTimes returns every span name's self time in seconds (its duration
// less the part its children cover), the total of the root spans, and an
// error when the spans are not properly nested.
func (t *tracer) selfTimes() (map[string]float64, float64, error) {
	self := map[string]int64{}
	var total int64
	for i, s := range t.spans {
		d := s.End - s.Start
		if d < 0 {
			return nil, 0, fmt.Errorf("span %s ends before it starts", s.Name)
		}
		self[s.Name] += d
		if s.Parent < 0 {
			total += d
			continue
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Parent >= i {
			return nil, 0, fmt.Errorf("span %s escapes its parent %s", s.Name, p.Name)
		}
		self[p.Name] -= d
	}
	out := make(map[string]float64, len(self))
	for k, v := range self {
		out[k] = float64(v) / 1e9
	}
	return out, float64(total) / 1e9, nil
}

// reconcileTolerance bounds how far the summed self times may differ from
// the traced total, as a share of it. Both are sums of the same integer
// nanosecond timestamps, so any difference beyond rounding means a span was
// lost or double counted.
const reconcileTolerance = 1e-6

// reconcile checks that the layers' self times plus the roots' self times
// add up to the traced total.
func reconcile(self map[string]float64, total float64) error {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names) // fixed summation order
	sum := 0.0
	for _, k := range names {
		sum += self[k]
	}
	if total <= 0 {
		return fmt.Errorf("trace total is %g s", total)
	}
	if d := (sum - total) / total; d > reconcileTolerance || d < -reconcileTolerance {
		return fmt.Errorf("self times sum to %.9f s, traced total is %.9f s", sum, total)
	}
	return nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
