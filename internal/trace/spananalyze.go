package trace

import (
	"sort"

	"df3/internal/sim"
)

// StageSummary aggregates the durations of every span sharing one stage
// label — the per-stage latency breakdown behind `df3trace`.
type StageSummary struct {
	Stage string
	Count int
	Total sim.Time
	Mean  sim.Time
	P50   sim.Time
	P99   sim.Time
	Max   sim.Time
}

// SummarizeStages groups spans by stage and reports duration statistics,
// sorted by descending total duration (the stages that cost the most wall
// time first).
func SummarizeStages(spans []Span) []StageSummary {
	byStage := map[string][]float64{}
	for _, sp := range spans {
		byStage[sp.Stage] = append(byStage[sp.Stage], sp.Duration())
	}
	stages := make([]string, 0, len(byStage))
	for stage := range byStage {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	out := make([]StageSummary, 0, len(byStage))
	for _, stage := range stages {
		ds := byStage[stage]
		sort.Float64s(ds)
		var total float64
		for _, d := range ds {
			total += d
		}
		q := func(p float64) sim.Time {
			idx := int(p * float64(len(ds)-1))
			return ds[idx]
		}
		out = append(out, StageSummary{
			Stage: stage,
			Count: len(ds),
			Total: total,
			Mean:  total / float64(len(ds)),
			P50:   q(0.50),
			P99:   q(0.99),
			Max:   ds[len(ds)-1],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// StageSelf is the self-time of one stage: wall time inside spans of that
// stage not covered by any child span. Summed over a request tree the self
// times decompose end-to-end latency into exclusive stage contributions.
type StageSelf struct {
	Stage string
	Self  sim.Time
}

// SelfTimes attributes each span's duration minus the union of its
// children's intervals (clipped to the span) to the span's stage, sorted by
// descending self time. This is the "where did the latency actually go"
// view: a root request span with long children has little self time.
func SelfTimes(spans []Span) []StageSelf {
	children := childIndex(spans)
	self := map[string]float64{}
	for _, sp := range spans {
		covered := intervalUnion(children[sp.ID], sp.Begin, sp.End)
		self[sp.Stage] += sp.Duration() - covered
	}
	out := make([]StageSelf, 0, len(self))
	for stage, s := range self {
		out = append(out, StageSelf{Stage: stage, Self: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// PathSeg is one segment of a critical path: the stage that was active and
// the interval it exclusively owned.
type PathSeg struct {
	Stage string
	From  sim.Time
	To    sim.Time
}

// CriticalPath walks the span tree from root downward, descending into the
// child that covers each moment, and returns the sequence of (stage,
// interval) segments that account for the root's entire duration.
func CriticalPath(spans []Span, root SpanID) []PathSeg {
	byID := map[SpanID]Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	children := childIndex(spans)
	rootSp, ok := byID[root]
	if !ok {
		return nil
	}
	return descend(rootSp, byID, children)
}

func descend(sp Span, byID map[SpanID]Span, children map[SpanID][]Span) []PathSeg {
	var segs []PathSeg
	cur := sp.Begin
	for _, ch := range children[sp.ID] {
		if ch.End <= cur || ch.Begin >= sp.End {
			continue
		}
		if ch.Begin > cur {
			segs = append(segs, PathSeg{Stage: sp.Stage, From: cur, To: ch.Begin})
		}
		segs = append(segs, descend(ch, byID, children)...)
		if ch.End > cur {
			cur = ch.End
		}
	}
	if cur < sp.End {
		segs = append(segs, PathSeg{Stage: sp.Stage, From: cur, To: sp.End})
	}
	return segs
}

// Roots returns the root spans (Parent == 0) sorted by descending duration —
// the slowest requests first, ready for critical-path extraction.
func Roots(spans []Span) []Span {
	var out []Span
	for _, sp := range spans {
		if sp.Parent == 0 {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Duration(), out[j].Duration()
		if di != dj {
			return di > dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// childIndex maps each parent id to its children sorted by begin time.
func childIndex(spans []Span) map[SpanID][]Span {
	children := map[SpanID][]Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	//df3:unordered-ok each iteration sorts one key's slice in place; no cross-key state
	for id := range children {
		cs := children[id]
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Begin != cs[j].Begin {
				return cs[i].Begin < cs[j].Begin
			}
			return cs[i].ID < cs[j].ID
		})
	}
	return children
}

// intervalUnion returns the total length of the union of the child
// intervals clipped to [lo, hi].
func intervalUnion(cs []Span, lo, hi sim.Time) sim.Time {
	var covered float64
	cur := lo
	for _, c := range cs {
		b, e := c.Begin, c.End
		if b < cur {
			b = cur
		}
		if e > hi {
			e = hi
		}
		if e <= b {
			continue
		}
		covered += e - b
		cur = e
	}
	return covered
}
