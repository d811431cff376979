// Package trace records simulation events to CSV and causal spans to JSON
// lines for offline analysis (df3trace summarises both), and exports spans
// as Chrome trace-event JSON for Perfetto.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"df3/internal/sim"
)

// Event is one traced record.
type Event struct {
	T    sim.Time `json:"t"`
	Kind string   `json:"kind"`
	ID   uint64   `json:"id"`
	// Value carries the kind-specific payload (latency, work, temp...).
	Value float64 `json:"value"`
	// Detail is an optional free-form annotation.
	Detail string `json:"detail,omitempty"`
}

// Recorder buffers events and causal spans in memory. The zero value is an
// unbounded recorder; NewRecorder bounds both buffers to a ring of fixed
// capacity so tracing a city-year run cannot exhaust memory.
type Recorder struct {
	events    []Event
	evHead    int
	evDropped int64

	cap int // ring capacity for events and completed spans; 0 = unbounded

	// Span state (span.go).
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

// Record appends one event, evicting the oldest at capacity.
func (r *Recorder) Record(ev Event) {
	if r.cap > 0 && len(r.events) == r.cap {
		r.events[r.evHead] = ev
		r.evHead++
		if r.evHead == r.cap {
			r.evHead = 0
		}
		r.evDropped++
		return
	}
	r.events = append(r.events, ev)
}

// Add is a convenience for Record.
func (r *Recorder) Add(t sim.Time, kind string, id uint64, value float64) {
	r.Record(Event{T: t, Kind: kind, ID: id, Value: value})
}

// Events returns all retained events in record order.
func (r *Recorder) Events() []Event {
	if r.evHead == 0 {
		return r.events
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.evHead:]...)
	return append(out, r.events[:r.evHead]...)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Filter returns events of one kind.
func (r *Recorder) Filter(kind string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV emits all events as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", "kind", "id", "value", "detail"}); err != nil {
		return err
	}
	for _, e := range r.Events() {
		rec := []string{
			strconv.FormatFloat(e.T, 'g', -1, 64),
			e.Kind,
			strconv.FormatUint(e.ID, 10),
			strconv.FormatFloat(e.Value, 'g', -1, 64),
			e.Detail,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses events written by WriteCSV.
func ReadCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	var out []Event
	for i, row := range rows[1:] {
		if len(row) != 5 {
			return nil, fmt.Errorf("trace: row %d has %d fields", i+1, len(row))
		}
		t, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+1, err)
		}
		id, err := strconv.ParseUint(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d id: %w", i+1, err)
		}
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d value: %w", i+1, err)
		}
		out = append(out, Event{T: t, Kind: row[1], ID: id, Value: v, Detail: row[4]})
	}
	return out, nil
}
