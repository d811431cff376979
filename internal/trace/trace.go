// Package trace records causal spans, writes them as JSON lines for
// offline analysis (df3trace summarises them), and exports them as Chrome
// trace-event JSON for Perfetto.
package trace

// Recorder buffers causal spans in memory. The zero value is an unbounded
// recorder; NewRecorder bounds the completed spans to a ring of fixed
// capacity so tracing a city-year run cannot exhaust memory.
type Recorder struct {
	cap           int // ring capacity for completed spans; 0 = unbounded
	spans         []Span
	spHead        int
	spDropped     int64
	open          []Span          // direct-mapped open spans (span.go: openSlots)
	overflow      map[SpanID]Span // open spans a later begin moved out of their slot
	nextSpan      SpanID
	unmatchedEnds int64
	orphanBegins  int64
	procs         []string
	curProc       int
	sink          func(Span)
}
