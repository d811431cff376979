package trace

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"df3/internal/rng"
	"df3/internal/sim"
)

// refRecorder is a map-based model of the Recorder's span bookkeeping,
// which TestOpenTableMatchesMapModel checks the Recorder against. It
// keeps every completed span (no ring, no sink).
type refRecorder struct {
	open               map[SpanID]Span
	spans              []Span
	next               SpanID
	procs, proc        int
	unmatched, orphans int64
}

func newRef() *refRecorder { return &refRecorder{open: map[SpanID]Span{}} }

func (m *refRecorder) beginProcess() {
	m.procs++
	m.proc = m.procs
}

func (m *refRecorder) begin(t sim.Time, stage string, traceID uint64, parent SpanID) SpanID {
	if parent != 0 {
		if ps, ok := m.open[parent]; ok {
			if traceID == 0 {
				traceID = ps.Trace
			}
		} else {
			m.orphans++
		}
	}
	m.next++
	m.open[m.next] = Span{ID: m.next, Parent: parent, Trace: traceID, Proc: m.proc, Stage: stage, Begin: t, End: -1}
	return m.next
}

func (m *refRecorder) end(t sim.Time, id SpanID, detail string) {
	if id == 0 {
		return
	}
	sp, ok := m.open[id]
	if !ok {
		m.unmatched++
		return
	}
	delete(m.open, id)
	sp.End = t
	if detail != "" {
		sp.Detail = detail
	}
	m.spans = append(m.spans, sp)
}

func (m *refRecorder) merge(src *refRecorder) {
	idBase, procBase := m.next, m.procs
	remap := func(sp Span) Span {
		sp.ID += idBase
		if sp.Parent != 0 {
			sp.Parent += idBase
		}
		if sp.Proc != 0 {
			sp.Proc += procBase
		}
		return sp
	}
	for _, sp := range src.spans {
		m.spans = append(m.spans, remap(sp))
	}
	for _, sp := range src.openSorted() {
		sp = remap(sp)
		m.open[sp.ID] = sp
	}
	m.procs += src.procs
	m.next += src.next
	m.unmatched += src.unmatched
	m.orphans += src.orphans
}

func (m *refRecorder) openSorted() []Span {
	out := make([]Span, 0, len(m.open))
	for _, sp := range m.open {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Begin != out[j].Begin {
			return out[i].Begin < out[j].Begin
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// pair drives a Recorder and its model with the same random operations.
// Some spans are begun long-lived and stay open across more than
// openSlots later begins, so their slots are taken and they move to the
// overflow map.
type pair struct {
	s       *rng.Stream
	r       *Recorder
	m       *refRecorder
	t       sim.Time
	live    []SpanID // spans begun and not yet ended (in the model)
	long    []SpanID // long-lived spans, ended only late
	stages  []string
	details []string
}

func newPair(s *rng.Stream, r *Recorder) *pair {
	p := &pair{
		s: s, r: r, m: newRef(),
		stages:  []string{"request", "queue", "compute", "net:lan"},
		details: []string{"", "served", "retry 1"},
	}
	r.BeginProcess("p")
	p.m.beginProcess()
	return p
}

// pick returns a random id: mostly a live span, sometimes an ended or
// never-issued one.
func (p *pair) pick() SpanID {
	switch k := p.s.Intn(10); {
	case k < 7 && len(p.live) > 0:
		return p.live[p.s.Intn(len(p.live))]
	case k < 9 && p.m.next > 0:
		return SpanID(1 + p.s.Intn(int(p.m.next)))
	default:
		return p.m.next + SpanID(1+p.s.Intn(5000))
	}
}

func (p *pair) step() {
	p.t += sim.Time(p.s.Intn(3)) * 0.001
	stage := p.stages[p.s.Intn(len(p.stages))]
	detail := p.details[p.s.Intn(len(p.details))]
	switch k := p.s.Intn(100); {
	case k < 40: // begin: a root, or a child of a picked span
		var parent SpanID
		var traceID uint64
		if p.s.Intn(2) == 0 {
			parent = p.pick()
		} else {
			traceID = p.s.Uint64() % 1000
		}
		id := p.r.BeginSpan(p.t, stage, traceID, parent)
		if want := p.m.begin(p.t, stage, traceID, parent); id != want {
			panic(fmt.Sprintf("BeginSpan issued id %d, model %d", id, want))
		}
		if p.s.Intn(50) == 0 {
			p.long = append(p.long, id)
		} else {
			p.live = append(p.live, id)
		}
	case k < 80: // end a picked span (live, ended or never issued)
		id := p.pick()
		p.r.EndSpanDetail(p.t, id, detail)
		p.m.end(p.t, id, detail)
		for i, x := range p.live {
			if x == id {
				p.live = append(p.live[:i], p.live[i+1:]...)
				break
			}
		}
	case k < 95: // instant under a picked span
		parent := p.pick()
		p.r.Instant(p.t, stage, 0, parent, detail)
		p.m.end(p.t, p.m.begin(p.t, stage, 0, parent), detail)
	case len(p.long) > 0 && p.m.next > openSlots+p.long[0]: // end the oldest long span
		id := p.long[0]
		p.long = p.long[1:]
		p.r.EndSpan(p.t, id)
		p.m.end(p.t, id, "")
	}
}

func (p *pair) check(t *testing.T, when string) {
	t.Helper()
	if got, want := p.r.Spans(), p.m.spans; !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d completed spans, model %d", when, len(got), len(want))
	}
	if got, want := p.r.OpenSpans(), p.m.openSorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d open spans, model %d", when, len(got), len(want))
	}
	if p.r.UnmatchedEnds() != p.m.unmatched || p.r.OrphanBegins() != p.m.orphans {
		t.Fatalf("%s: unmatched %d orphans %d, model %d %d", when,
			p.r.UnmatchedEnds(), p.r.OrphanBegins(), p.m.unmatched, p.m.orphans)
	}
	if p.r.DroppedSpans() != 0 {
		t.Fatalf("%s: unbounded recorder dropped %d spans", when, p.r.DroppedSpans())
	}
}

// TestOpenTableMatchesMapModel runs random begin, end, instant and Merge
// sequences against the Recorder and a map-based model of it. Spans that
// stay open across more than openSlots later begins exercise the overflow
// map; Merge remaps a second recorder's open spans into the table.
func TestOpenTableMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		s := rng.New(seed)
		p := newPair(s, NewRecorder(0))
		for i := 0; i < 30000; i++ {
			p.step()
			if i%10000 == 9999 {
				src := newPair(s.Fork(uint64(i)), NewRecorder(0))
				for j := 0; j < 6000; j++ {
					src.step()
				}
				p.r.Merge(src.r)
				p.m.merge(src.m)
				p.check(t, fmt.Sprintf("seed %d after merge at op %d", seed, i))
			}
		}
		if len(p.r.overflow) == 0 {
			t.Fatalf("seed %d: no span reached the overflow map; the test is vacuous", seed)
		}
		p.check(t, fmt.Sprintf("seed %d at the end", seed))
	}
}

// TestSinkRecorderKeepsNoRing: with a sink attached every completed span
// goes to the sink, in completion order, and the recorder keeps none.
func TestSinkRecorderKeepsNoRing(t *testing.T) {
	s := rng.New(9)
	r := NewRecorder(16)
	var sunk []Span
	r.SetSink(func(sp Span) { sunk = append(sunk, sp) })
	p := newPair(s, r)
	for i := 0; i < 20000; i++ {
		p.step()
	}
	if !reflect.DeepEqual(sunk, p.m.spans) {
		t.Fatalf("sink saw %d spans, model completed %d", len(sunk), len(p.m.spans))
	}
	if len(r.Spans()) != 0 || r.DroppedSpans() != 0 {
		t.Fatalf("recorder with a sink kept %d spans, dropped %d", len(r.Spans()), r.DroppedSpans())
	}
	if got, want := r.OpenSpans(), p.m.openSorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d open spans, model %d", len(got), len(want))
	}
	defer func() {
		if recover() == nil {
			t.Error("SetCapacity after recording into a sink should panic")
		}
	}()
	r.SetCapacity(8)
}
