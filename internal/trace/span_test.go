package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildSampleTrace records a small deterministic request tree:
//
//	request[1..10]: decide → net:up → {queue → compute} with one retry hop
//	on request 3 (timeout instant + second net:up + compute).
func buildSampleTrace(r *Recorder) {
	r.BeginProcess("E-sample")
	root := r.BeginSpan(0.000, "request", 3, 0)
	r.Instant(0.000, "decide", 0, root, "local")
	up := r.BeginSpan(0.000, "net:device-gw", 0, root)
	r.EndSpanDetail(0.004, up, "delivered")
	q := r.BeginSpan(0.004, "queue", 0, root)
	r.EndSpan(0.010, q)
	c := r.BeginSpan(0.010, "compute", 0, root)
	r.EndSpan(0.030, c)
	r.Instant(0.050, "timeout", 0, root, "retry 1")
	up2 := r.BeginSpan(0.050, "net:device-gw", 0, root)
	r.EndSpanDetail(0.054, up2, "delivered")
	c2 := r.BeginSpan(0.054, "compute", 0, root)
	r.EndSpan(0.070, c2)
	r.EndSpanDetail(0.074, root, "served")
}

func TestSpanLifecycleInvariants(t *testing.T) {
	r := &Recorder{}
	buildSampleTrace(r)

	// Every Begin has exactly one End: nothing left open, no unmatched
	// ends, no orphan parents.
	if n := len(r.OpenSpans()); n != 0 {
		t.Errorf("%d spans left open: %v", n, r.OpenSpans())
	}
	if r.UnmatchedEnds() != 0 {
		t.Errorf("unmatched ends = %d", r.UnmatchedEnds())
	}
	if r.OrphanBegins() != 0 {
		t.Errorf("orphan begins = %d", r.OrphanBegins())
	}
	spans := r.Spans()
	if len(spans) != 8 {
		t.Fatalf("got %d spans, want 8", len(spans))
	}
	seen := map[SpanID]bool{}
	for _, sp := range spans {
		if seen[sp.ID] {
			t.Errorf("span id %d completed twice", sp.ID)
		}
		seen[sp.ID] = true
		if sp.End < sp.Begin {
			t.Errorf("span %d (%s) ends before it begins: %v < %v", sp.ID, sp.Stage, sp.End, sp.Begin)
		}
		// Children inherit the root's trace id.
		if sp.Trace != 3 {
			t.Errorf("span %d (%s) trace = %d, want inherited 3", sp.ID, sp.Stage, sp.Trace)
		}
		if sp.Parent != 0 && !seen[sp.Parent] {
			// Parent must have been issued before the child (ids ascend);
			// the root completes last so only check issuance order.
			if sp.Parent >= sp.ID {
				t.Errorf("span %d has later parent %d", sp.ID, sp.Parent)
			}
		}
	}

	// Double-End is flagged, not double-recorded.
	r2 := &Recorder{}
	id := r2.BeginSpan(0, "x", 1, 0)
	r2.EndSpan(1, id)
	r2.EndSpan(2, id)
	if r2.UnmatchedEnds() != 1 {
		t.Errorf("double End: unmatched = %d, want 1", r2.UnmatchedEnds())
	}
	if len(r2.Spans()) != 1 {
		t.Errorf("double End recorded %d spans", len(r2.Spans()))
	}

	// A Begin against a bogus parent is flagged as an orphan.
	r2.BeginSpan(3, "y", 1, 9999)
	if r2.OrphanBegins() != 1 {
		t.Errorf("orphan begins = %d, want 1", r2.OrphanBegins())
	}
}

func TestSpanNilRecorderSafe(t *testing.T) {
	var r *Recorder
	id := r.BeginSpan(0, "x", 1, 0)
	if id != 0 {
		t.Errorf("nil recorder issued span id %d", id)
	}
	r.EndSpan(1, id)
	r.EndSpanDetail(1, id, "d")
	r.Instant(1, "y", 1, 0, "")
	if r.BeginProcess("p") != 0 {
		t.Error("nil recorder issued a process id")
	}
	if r.Spans() != nil || r.OpenSpans() != nil || r.Processes() != nil {
		t.Error("nil recorder returned non-nil slices")
	}
	if r.UnmatchedEnds() != 0 || r.OrphanBegins() != 0 {
		t.Error("nil recorder counted something")
	}
}

// TestSpanHotPathNoAlloc proves the tracing-off fast path costs zero
// allocations: a nil *Recorder receiver short-circuits before any work.
func TestSpanHotPathNoAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		id := r.BeginSpan(1, "request", 42, 0)
		r.Instant(1, "decide", 0, id, "local")
		r.EndSpanDetail(2, id, "served")
	})
	if allocs != 0 {
		t.Errorf("tracing-off span path allocates %v per op, want 0", allocs)
	}
}

func TestRecorderRingCapacity(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		id := r.BeginSpan(float64(i), "s", uint64(i+1), 0)
		r.EndSpan(float64(i)+0.5, id)
	}
	spans := r.Spans()
	if len(spans) != 4 || r.DroppedSpans() != 6 {
		t.Errorf("spans = %d dropped = %d, want 4/6", len(spans), r.DroppedSpans())
	}
	for i, sp := range spans {
		if sp.Trace != uint64(7+i) {
			t.Errorf("span[%d].Trace = %d, want %d", i, sp.Trace, 7+i)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("SetCapacity after recording should panic")
		}
	}()
	r.SetCapacity(8)
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	r := &Recorder{}
	buildSampleTrace(r)
	var buf bytes.Buffer
	if err := r.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Spans()
	if len(got) != len(want) {
		t.Fatalf("round-trip %d spans, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("span %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// Property: the JSONL round trip is lossless for arbitrary times, ids and
// free-form stage and detail strings (commas, quotes, newlines, non-ASCII).
func TestSpanJSONLRoundTripProperty(t *testing.T) {
	f := func(begins []uint32, lens []uint16, stage, detail string) bool {
		r := &Recorder{}
		r.BeginProcess(stage)
		var parent SpanID
		for i := range begins {
			if i >= len(lens) {
				break
			}
			b := float64(begins[i]) / 7
			id := r.BeginSpan(b, stage, uint64(i), parent)
			r.EndSpanDetail(b+float64(lens[i])/3, id, detail)
			parent = id
		}
		var buf bytes.Buffer
		if err := r.WriteSpansJSONL(&buf); err != nil {
			return false
		}
		got, err := ReadSpansJSONL(&buf)
		if err != nil {
			return false
		}
		want := r.Spans()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestReadSpansJSONLErrors: a line that is not a span fails the whole read
// instead of yielding a partial trace; an empty file is an empty trace.
func TestReadSpansJSONLErrors(t *testing.T) {
	for _, in := range []string{
		"# worker 0 (127.0.0.1:9461)\n{\"id\":1,\"stage\":\"request\",\"begin\":0,\"end\":1}\n",
		"{\"id\":1,\"stage\":\"request\",\"begin\":\"x\",\"end\":1}\n",
		"{\"id\":1,\"stage\":\"req",
	} {
		if _, err := ReadSpansJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	got, err := ReadSpansJSONL(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: %v spans, err %v; want none and no error", len(got), err)
	}
}

// TestChromeExporterGolden pins the Chrome trace-event output byte-for-byte
// against testdata/chrome_golden.json (refresh with `go test -run Golden
// -update ./internal/trace`). It also checks the export is valid JSON with
// the structure Perfetto expects.
func TestChromeExporterGolden(t *testing.T) {
	r := &Recorder{}
	buildSampleTrace(r)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 1 metadata + 8 spans.
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("%d trace events, want 9", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Name != "process_name" {
		t.Errorf("first event is not process metadata: %+v", doc.TraceEvents[0])
	}
	var sawRetryCompute bool
	for _, ev := range doc.TraceEvents[1:] {
		if ev.Ph != "X" {
			t.Errorf("span event phase = %q, want X", ev.Ph)
		}
		if ev.Tid != 3 {
			t.Errorf("span tid = %d, want trace id 3", ev.Tid)
		}
		if ev.Name == "compute" && ev.Ts == 0.054*1e6 {
			sawRetryCompute = true
		}
	}
	if !sawRetryCompute {
		t.Error("retry-hop compute span missing from export")
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export deviates from golden file:\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}

func TestSummarizeStages(t *testing.T) {
	r := &Recorder{}
	buildSampleTrace(r)
	sums := SummarizeStages(r.Spans())
	if len(sums) == 0 || sums[0].Stage != "request" {
		t.Fatalf("costliest stage = %+v, want request first", sums)
	}
	byStage := map[string]StageSummary{}
	for _, s := range sums {
		byStage[s.Stage] = s
	}
	if c := byStage["compute"]; c.Count != 2 || math.Abs(c.Total-0.036) > 1e-12 {
		t.Errorf("compute summary = %+v", c)
	}
	if n := byStage["net:device-gw"]; n.Count != 2 || math.Abs(n.Mean-0.004) > 1e-12 {
		t.Errorf("net summary = %+v", n)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := SummarizeStages(nil); len(got) != 0 {
		t.Errorf("summaries of a nil trace: %v", got)
	}
	if got := SummarizeStages([]Span{}); len(got) != 0 {
		t.Errorf("summaries of an empty trace: %v", got)
	}
}

func TestSelfTimesDecompose(t *testing.T) {
	r := &Recorder{}
	buildSampleTrace(r)
	selfs := SelfTimes(r.Spans())
	total := 0.0
	byStage := map[string]float64{}
	for _, s := range selfs {
		byStage[s.Stage] = s.Self
		total += s.Self
	}
	// Self times of a tree decompose the root duration exactly.
	if math.Abs(total-0.074) > 1e-12 {
		t.Errorf("self times sum to %v, want root duration 0.074", total)
	}
	if math.Abs(byStage["compute"]-0.036) > 1e-12 {
		t.Errorf("compute self = %v, want 0.036", byStage["compute"])
	}
	// The root's self time is the uninstrumented wait (0.030→0.050 retry
	// wait plus 0.070→0.074 response leg).
	if math.Abs(byStage["request"]-0.024) > 1e-12 {
		t.Errorf("request self = %v, want 0.024", byStage["request"])
	}
}

func TestCriticalPath(t *testing.T) {
	r := &Recorder{}
	buildSampleTrace(r)
	roots := Roots(r.Spans())
	if len(roots) != 1 || roots[0].Stage != "request" {
		t.Fatalf("roots = %+v", roots)
	}
	segs := CriticalPath(r.Spans(), roots[0].ID)
	if len(segs) == 0 {
		t.Fatal("empty critical path")
	}
	// Segments are contiguous, cover the root exactly, and visit the
	// retry-hop stages.
	cur := roots[0].Begin
	var stages []string
	for _, s := range segs {
		if s.From != cur {
			t.Errorf("gap in critical path at %v (segment starts %v)", cur, s.From)
		}
		if s.To < s.From {
			t.Errorf("segment runs backwards: %+v", s)
		}
		cur = s.To
		stages = append(stages, s.Stage)
	}
	if cur != roots[0].End {
		t.Errorf("critical path ends at %v, want %v", cur, roots[0].End)
	}
	joined := strings.Join(stages, ",")
	for _, want := range []string{"net:device-gw", "queue", "compute", "request"} {
		if !strings.Contains(joined, want) {
			t.Errorf("critical path %v missing stage %s", stages, want)
		}
	}
}
