package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer records the benchmark's own spans in memory: one per call the
// wrappers and timed sections make into a layer. Every span carries the
// operation it belongs to and the span that caused it, so self time
// (duration minus the time its children cover) can be computed once the
// run is over. A nil *tracer records nothing; untraced runs use one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one recorded interval. Start and End are nanoseconds since the
// tracer was created; ID 0 means "no span" (a root has Parent 0).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its ID (0 on a nil
// tracer). A span opened with parent 0, or with an ID this tracer never
// issued (a handler reads it from a request header), starts an
// operation and its own ID becomes the op ID; any other span joins its
// parent's operation.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	op := id
	if parent > 0 && parent < id {
		op = t.spans[parent-1].Op
	} else {
		parent = 0
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// finished returns the closed spans with self time filled in.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	var out []span
	for _, s := range spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return selfTimes(out)
}

// selfTimes sets each span's Self to its duration minus the union of its
// children's intervals clipped to it. Children of one parent may overlap
// (Sync drives both partitions at once), so the union, not the sum, is
// subtracted.
func selfTimes(spans []span) []span {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return spans
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// durations is the length, in unit, of every span named name.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// countPerOp counts, per operation, the spans whose name is in names.
func countPerOp(spans []span, names ...string) map[int64]int {
	out := map[int64]int{}
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out[s.Op]++
			}
		}
	}
	return out
}

// nameTotal is the self time of every span with one name.
type nameTotal struct {
	Name  string
	Count int
	Self  time.Duration
}

// selfByName totals self time per span name, sorted by descending self
// time.
func selfByName(spans []span) []nameTotal {
	idx := map[string]int{}
	var out []nameTotal
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, nameTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].Self += time.Duration(s.Self)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	return bw.Flush()
}
