package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share
// Op; Parent is the index of the enclosing span, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. A nil tracer records nothing, which is how untraced runs call
// the same code.
type tracer struct {
	t0     time.Time
	spans  []span
	values map[string][]float64 // counts read at the same boundaries
}

func newTracer() *tracer { return &tracer{t0: time.Now(), values: map[string][]float64{}} }

// note records one reading of a named count.
func (t *tracer) note(name string, v float64) {
	if t != nil {
		t.values[name] = append(t.values[name], v)
	}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, op, parent int, fn func() error) error {
	id := t.begin(name, op, parent)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval covered by its children (overlapping children
// count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := time.Duration(0), s.Start
		for _, v := range ivs {
			a := max(v.a, reach)
			if v.b > a {
				covered += v.b - a
				reach = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// perOp sums the durations of the named spans within each op and
// returns one total per op that has any, in milliseconds.
func (t *tracer) perOp(name string) []float64 {
	sums := map[int]time.Duration{}
	var ops []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		sums[s.Op] += s.dur()
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(sums[op])
	}
	return out
}

// perCall returns the duration of every named span, in milliseconds.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write saves the spans with their self times as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		doc := struct {
			span
			Self time.Duration `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(doc); err != nil {
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
