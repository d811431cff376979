package trace

import (
	"sort"

	"df3/internal/sim"
)

// SpanID identifies one span within a Recorder. Zero means "no span" — every
// span method treats it (and a nil Recorder) as a no-op, which is what lets
// the instrumented hot paths run allocation-free when tracing is off.
type SpanID uint64

// Span is one causal interval in a request's (or job's, or machine's) life:
// a stage with a begin and end time, optionally parented to the stage that
// caused it. The parent links turn a trace into a tree per request, which is
// how end-to-end latency decomposes into queue/network/compute/retry-wait.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	// Trace correlates every span of one request/job; machine-window spans
	// use a per-machine tag. A Begin with Trace 0 inherits the parent's.
	Trace uint64 `json:"trace,omitempty"`
	// Proc groups spans into processes (one per traced scenario) so a
	// single Recorder can hold several runs side by side in Perfetto.
	Proc   int      `json:"proc,omitempty"`
	Stage  string   `json:"stage"`
	Begin  sim.Time `json:"begin"`
	End    sim.Time `json:"end"`
	Detail string   `json:"detail,omitempty"`
}

// Duration returns End − Begin.
func (s Span) Duration() sim.Time { return s.End - s.Begin }

// NewRecorder returns a recorder whose completed-span buffer is bounded to
// capacity entries (0 = unbounded). When the buffer is full the oldest span
// is overwritten and DroppedSpans advances — long city runs with tracing
// on stay at bounded memory.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{}
	r.SetCapacity(capacity)
	return r
}

// SetCapacity bounds the completed-span buffer (0 = unbounded).
// It must be called before anything is recorded.
func (r *Recorder) SetCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	if len(r.spans) > 0 || r.nextSpan > 0 {
		panic("trace: SetCapacity after recording started")
	}
	r.cap = capacity
}

// Capacity returns the configured buffer bound (0 = unbounded).
func (r *Recorder) Capacity() int { return r.cap }

// DroppedSpans returns how many completed spans were evicted from the ring.
// It stays 0 for a recorder with a sink, which keeps no ring (SetSink).
func (r *Recorder) DroppedSpans() int64 { return r.spDropped }

// BeginProcess opens a new process scope (returning its 1-based id): spans
// begun afterwards carry it, and the Chrome exporter renders each process
// as its own named track group. Use one process per traced scenario.
func (r *Recorder) BeginProcess(label string) int {
	if r == nil {
		return 0
	}
	r.procs = append(r.procs, label)
	r.curProc = len(r.procs)
	return r.curProc
}

// Processes returns the registered process labels in BeginProcess order.
func (r *Recorder) Processes() []string {
	if r == nil {
		return nil
	}
	return r.procs
}

// BeginSpan opens a span at time t. traceID correlates the request or job
// the span belongs to; 0 inherits the open parent's trace. parent is the
// causing span (0 for a root). Nil recorders return 0, and every other span
// method ignores id 0, so instrumented code needs no tracing-enabled checks.
func (r *Recorder) BeginSpan(t sim.Time, stage string, traceID uint64, parent SpanID) SpanID {
	if r == nil {
		return 0
	}
	if parent != 0 {
		if ps, ok := r.openSpan(parent); ok {
			if traceID == 0 {
				traceID = ps.Trace
			}
		} else {
			// The parent is not open: either it never existed or it ended
			// before this child began. Both break the causal tree.
			r.orphanBegins++
		}
	}
	r.nextSpan++
	id := r.nextSpan
	*r.newOpen(id) = Span{
		ID: id, Parent: parent, Trace: traceID, Proc: r.curProc,
		Stage: stage, Begin: t, End: -1,
	}
	return id
}

// openSlots is the size of the direct-mapped open-span table. Span ids
// are sequential, so span id's slot id%openSlots is wanted again only
// openSlots begins later; a span still open then (a long machine window)
// moves to the overflow map. Request spans live far shorter than 4096
// begins, so lookups almost never reach the map.
const openSlots = 4096

// newOpen returns the table slot for the open span id, first moving the
// slot's previous, still-open holder to the overflow map.
func (r *Recorder) newOpen(id SpanID) *Span {
	if r.open == nil {
		r.open = make([]Span, openSlots)
	}
	slot := &r.open[id%openSlots]
	if slot.ID != 0 {
		if r.overflow == nil {
			r.overflow = map[SpanID]Span{}
		}
		r.overflow[slot.ID] = *slot
	}
	return slot
}

// openSpan returns the open span id and whether it is open.
func (r *Recorder) openSpan(id SpanID) (Span, bool) {
	if r.open == nil {
		return Span{}, false
	}
	if slot := &r.open[id%openSlots]; slot.ID == id {
		return *slot, true
	}
	sp, ok := r.overflow[id]
	return sp, ok
}

// takeOpen removes the open span id and reports whether it was open.
func (r *Recorder) takeOpen(id SpanID) (Span, bool) {
	if r.open == nil {
		return Span{}, false
	}
	if slot := &r.open[id%openSlots]; slot.ID == id {
		sp := *slot
		*slot = Span{}
		return sp, true
	}
	sp, ok := r.overflow[id]
	if ok {
		delete(r.overflow, id)
	}
	return sp, ok
}

// EndSpan closes an open span at time t. Ending id 0, an unknown id or an
// already-ended span is a counted no-op.
func (r *Recorder) EndSpan(t sim.Time, id SpanID) { r.EndSpanDetail(t, id, "") }

// EndSpanDetail is EndSpan with a free-form annotation (outcome, route...).
func (r *Recorder) EndSpanDetail(t sim.Time, id SpanID, detail string) {
	if r == nil || id == 0 {
		return
	}
	sp, ok := r.takeOpen(id)
	if !ok {
		r.unmatchedEnds++
		return
	}
	sp.End = t
	if detail != "" {
		sp.Detail = detail
	}
	r.pushSpan(sp)
}

// Instant records a zero-duration span at t — a point annotation (a decide
// outcome, a timeout firing) that still hangs off the causal tree.
func (r *Recorder) Instant(t sim.Time, stage string, traceID uint64, parent SpanID, detail string) {
	if r == nil {
		return
	}
	id := r.BeginSpan(t, stage, traceID, parent)
	r.EndSpanDetail(t, id, detail)
}

// SetSink installs a hook invoked with every completed span, in completion
// order. A recorder with a sink hands each span over and keeps no ring of
// its own: Spans returns only what completed before SetSink, and
// DroppedSpans stays 0, since the sink (an always-on flight recorder) owns
// retention and counts its own evictions. The sink runs on the recording
// goroutine and must be pure observation: it must not call back into the
// recorder or touch simulation state. Nil recorders and a nil fn are
// no-ops.
func (r *Recorder) SetSink(fn func(Span)) {
	if r == nil {
		return
	}
	r.sink = fn
}

// pushSpan hands a completed span to the sink, or else appends it to the
// ring, evicting the oldest at capacity.
func (r *Recorder) pushSpan(sp Span) {
	if r.sink != nil {
		r.sink(sp)
		return
	}
	if r.cap > 0 && len(r.spans) == r.cap {
		r.spans[r.spHead] = sp
		r.spHead++
		if r.spHead == r.cap {
			r.spHead = 0
		}
		r.spDropped++
		return
	}
	r.spans = append(r.spans, sp)
}

// Spans returns the completed spans in completion order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	if r.spHead == 0 {
		return r.spans
	}
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.spHead:]...)
	return append(out, r.spans[:r.spHead]...)
}

// OpenSpans returns spans begun but not yet ended, ordered by begin time —
// in a drained simulation this should be empty; anything left is a
// lifecycle leak worth flagging.
func (r *Recorder) OpenSpans() []Span {
	if r == nil {
		return nil
	}
	out := []Span{}
	r.eachOpen(func(sp Span) { out = append(out, sp) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Begin != out[j].Begin {
			return out[i].Begin < out[j].Begin
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// eachOpen visits every open span: the table in slot order, then the
// overflow map in id order.
func (r *Recorder) eachOpen(visit func(Span)) {
	for i := range r.open {
		if r.open[i].ID != 0 {
			visit(r.open[i])
		}
	}
	ids := make([]SpanID, 0, len(r.overflow))
	for id := range r.overflow {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		visit(r.overflow[id])
	}
}

// UnmatchedEnds counts EndSpan calls that found no open span.
func (r *Recorder) UnmatchedEnds() int64 {
	if r == nil {
		return 0
	}
	return r.unmatchedEnds
}

// OrphanBegins counts BeginSpan calls whose non-zero parent was not open.
func (r *Recorder) OrphanBegins() int64 {
	if r == nil {
		return 0
	}
	return r.orphanBegins
}
