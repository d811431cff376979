package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"df3/internal/metrics"
	"df3/internal/trace"
)

// Flight is the always-on flight recorder: a set of bounded rings, one
// per span source (one per city recorder, one for live ingest), each fed
// completed spans through the sink Hook returns. Its Policy makes the one
// sampling decision for every source. The hot path — a span completing
// on a shard worker — takes one sampling hash and one mutex; a city's
// ring is written only by the worker that runs the city, so it contends
// only with an in-flight scrape of the same source. Readers (the /v1/traces
// handler, df3top's summary) snapshot the rings without touching the
// driver: streaming recent telemetry never stops the simulation, and
// keeps working while a recovering daemon 503s its Sync-using handlers.
type Flight struct {
	capacity int
	policy   Policy

	mu    sync.Mutex
	rings []*flightRing
}

// flightRing is one source's bounded span buffer.
type flightRing struct {
	label string

	mu      sync.Mutex
	buf     []trace.Span
	head    int
	kept    uint64
	evicted uint64

	sampledOut atomic.Uint64
}

// FlightSpan is one line of the /v1/traces NDJSON stream: a completed
// span plus the source ring it came from (span ids are only unique within
// a source).
type FlightSpan struct {
	Src string `json:"src"`
	trace.Span
}

// NewFlight returns a flight recorder whose per-source rings hold up to
// capacity spans each (minimum 1), retaining spans the policy admits.
func NewFlight(capacity int, policy Policy) *Flight {
	if capacity < 1 {
		capacity = 1
	}
	return &Flight{capacity: capacity, policy: policy}
}

// Hook registers a new span source and returns its sink: install it with
// trace.Recorder.SetSink, or call it with each completed span (the live
// ingest plane files one span per settled line). Each source gets its own
// ring and label. The sink is safe to call from any goroutine: it writes
// the ring under the ring's mutex and counts sampled-out spans in an
// atomic.
func (f *Flight) Hook(label string) func(trace.Span) {
	s := &flightRing{label: label, buf: make([]trace.Span, 0, f.capacity)}
	f.mu.Lock()
	f.rings = append(f.rings, s)
	f.mu.Unlock()
	return func(sp trace.Span) {
		if !f.policy.Keep(sp.Stage, sp.Trace) {
			s.sampledOut.Add(1)
			return
		}
		s.mu.Lock()
		if len(s.buf) == cap(s.buf) {
			s.buf[s.head] = sp
			s.head++
			if s.head == cap(s.buf) {
				s.head = 0
			}
			s.evicted++
		} else {
			s.buf = append(s.buf, sp)
		}
		s.kept++
		s.mu.Unlock()
	}
}

// Attach is Hook plus the SetSink call.
func (f *Flight) Attach(label string, r *trace.Recorder) {
	r.SetSink(f.Hook(label))
}

// snapshot copies one ring in completion order.
func (s *flightRing) snapshot() []trace.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]trace.Span, 0, len(s.buf))
	out = append(out, s.buf[s.head:]...)
	return append(out, s.buf[:s.head]...)
}

// Snapshot returns the retained spans of every source, ordered
// deterministically by (End, Begin, Src, ID).
func (f *Flight) Snapshot() []FlightSpan {
	f.mu.Lock()
	rings := append([]*flightRing(nil), f.rings...)
	f.mu.Unlock()
	var out []FlightSpan
	for _, s := range rings {
		for _, sp := range s.snapshot() {
			out = append(out, FlightSpan{Src: s.label, Span: sp})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.ID < b.ID
	})
	return out
}

// WriteNDJSON streams the current snapshot, one FlightSpan per line —
// the GET /v1/traces body.
func (f *Flight) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range f.Snapshot() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// SinkStats is one source's bookkeeping: spans admitted into the ring,
// spans the policy sampled out, and ring evictions (admitted but since
// overwritten). Kept − Evicted spans are currently retained.
type SinkStats struct {
	Src        string `json:"src"`
	Kept       uint64 `json:"kept"`
	SampledOut uint64 `json:"sampled_out"`
	Evicted    uint64 `json:"evicted"`
}

// Stats returns per-source counters in Hook registration order.
func (f *Flight) Stats() []SinkStats {
	f.mu.Lock()
	rings := append([]*flightRing(nil), f.rings...)
	f.mu.Unlock()
	out := make([]SinkStats, 0, len(rings))
	for _, s := range rings {
		s.mu.Lock()
		st := SinkStats{Src: s.label, Kept: s.kept, Evicted: s.evicted}
		s.mu.Unlock()
		st.SampledOut = s.sampledOut.Load()
		out = append(out, st)
	}
	return out
}

// FlightSummary is the online roll-up of the recorder's current window:
// per-stage latency statistics plus the critical path of the slowest
// retained root span — computed from the rings alone, without stopping
// the driver.
type FlightSummary struct {
	Spans  int                  `json:"spans"`
	Stages []trace.StageSummary `json:"stages"`
	// SlowestRoot identifies the root the critical path decomposes.
	SlowestRoot *FlightSpan     `json:"slowest_root,omitempty"`
	Critical    []trace.PathSeg `json:"critical_path,omitempty"`
	Sinks       []SinkStats     `json:"sinks"`
}

// Summary computes the online FlightSummary. The critical path is taken
// within the slowest root's own source ring (span ids are per-source);
// children the ring has already evicted simply shorten the path.
func (f *Flight) Summary() FlightSummary {
	f.mu.Lock()
	rings := append([]*flightRing(nil), f.rings...)
	f.mu.Unlock()

	var all []trace.Span
	var slowest *FlightSpan
	var slowestRing []trace.Span
	for _, s := range rings {
		spans := s.snapshot()
		all = append(all, spans...)
		// Roots sorts by descending duration; only each ring's slowest
		// competes.
		if roots := trace.Roots(spans); len(roots) > 0 {
			root := roots[0]
			if slowest == nil ||
				root.Duration() > slowest.Duration() ||
				(root.Duration() == slowest.Duration() && s.label < slowest.Src) {
				slowest = &FlightSpan{Src: s.label, Span: root}
				slowestRing = spans
			}
		}
	}
	sum := FlightSummary{
		Spans:  len(all),
		Stages: trace.SummarizeStages(all),
		Sinks:  f.Stats(),
	}
	if slowest != nil {
		sum.SlowestRoot = slowest
		sum.Critical = trace.CriticalPath(slowestRing, slowest.ID)
	}
	return sum
}

// Register exposes the recorder's health through the metrics registry:
// per-source kept/sampled-out/evicted counters and the source count. Call
// after every Hook has been registered (df3d does so post-build); sources
// hooked later are still recorded, just not individually exported.
func (f *Flight) Register(reg *metrics.Registry) {
	f.mu.Lock()
	rings := append([]*flightRing(nil), f.rings...)
	f.mu.Unlock()
	reg.GaugeFunc("df3_flight_sources", "flight recorder span sources", nil,
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(f.rings))
		})
	reg.GaugeFunc("df3_flight_ring_capacity", "per-source span ring bound", nil,
		func() float64 { return float64(f.capacity) })
	for _, s := range rings {
		s := s
		lbl := metrics.Labels{"src": s.label}
		reg.CounterFunc("df3_flight_spans_kept_total", "spans admitted into the flight ring", lbl,
			func() int64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return int64(s.kept)
			})
		reg.CounterFunc("df3_flight_spans_sampled_out_total", "spans rejected by the sampling policy", lbl,
			func() int64 { return int64(s.sampledOut.Load()) })
		reg.CounterFunc("df3_flight_spans_evicted_total", "admitted spans overwritten by newer ones", lbl,
			func() int64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return int64(s.evicted)
			})
	}
}
