package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"df3/internal/metrics"
	"df3/internal/sim"
	"df3/internal/trace"
)

// span pushes one completed span through a recorder.
func span(r *trace.Recorder, t float64, stage string, traceID uint64) {
	id := r.BeginSpan(t, stage, traceID, 0)
	r.EndSpan(t+1, id)
}

func TestFlightRingWraparound(t *testing.T) {
	f := NewFlight(4, Policy{})
	rec := trace.NewRecorder(0)
	f.Attach("src", rec)

	for i := 0; i < 10; i++ {
		span(rec, float64(i), "stage", uint64(i+1))
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(snap))
	}
	// The four most recent traces (7..10) survive, oldest first.
	for i, sp := range snap {
		if want := uint64(7 + i); sp.Trace != want {
			t.Errorf("snap[%d].Trace = %d, want %d", i, sp.Trace, want)
		}
		if sp.Src != "src" {
			t.Errorf("snap[%d].Src = %q", i, sp.Src)
		}
	}
	st := f.Stats()
	if len(st) != 1 {
		t.Fatalf("stats: %v", st)
	}
	if st[0].Kept != 10 || st[0].Evicted != 6 || st[0].SampledOut != 0 {
		t.Errorf("stats = %+v, want kept 10 evicted 6 sampled_out 0", st[0])
	}
}

func TestFlightSamplingDeterministicAndCounted(t *testing.T) {
	f := NewFlight(1024, Policy{Default: 4})
	rec := trace.NewRecorder(0)
	f.Attach("src", rec)

	const n = 4000
	for i := 0; i < n; i++ {
		span(rec, float64(i), "stage", uint64(i+1))
	}
	st := f.Stats()[0]
	if st.Kept+st.SampledOut != n {
		t.Fatalf("kept %d + sampled_out %d != %d", st.Kept, st.SampledOut, n)
	}
	// Hash sampling at 1-in-4 over sequential keys: expect ~n/4 within a
	// loose tolerance.
	if st.Kept < n/8 || st.Kept > n/2 {
		t.Errorf("kept %d of %d at rate 4: outside [n/8, n/2]", st.Kept, n)
	}
	// Determinism: a second identical run keeps exactly the same spans.
	f2 := NewFlight(1024, Policy{Default: 4})
	rec2 := trace.NewRecorder(0)
	f2.Attach("src", rec2)
	for i := 0; i < n; i++ {
		span(rec2, float64(i), "stage", uint64(i+1))
	}
	a, b := f.Snapshot(), f2.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("reruns kept %d vs %d spans", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFlightConcurrentScrape exercises the lock structure under -race:
// several sources record, two writers share one source (as shard workers
// share the ingest ring), while readers snapshot, summarize and scrape.
func TestFlightConcurrentScrape(t *testing.T) {
	f := NewFlight(64, Policy{})
	reg := metrics.NewRegistry()
	hooks := make([]func(trace.Span), 4)
	for i := range hooks {
		hooks[i] = f.Hook("src-" + string(rune('a'+i)))
	}
	f.Register(reg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, hook := range append(hooks, hooks[0]) {
		wg.Add(1)
		go func(i int, hook func(trace.Span)) {
			defer wg.Done()
			for n := 0; n < 5000; n++ {
				hook(trace.Span{ID: trace.SpanID(n + 1), Stage: "work",
					Trace: uint64(i*100000 + n), Begin: float64(n), End: float64(n + 1)})
			}
		}(i, hook)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Snapshot()
			f.Summary()
			f.Stats()
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	if got := len(f.Snapshot()); got != 4*64 {
		t.Errorf("retained %d spans, want %d", got, 4*64)
	}
	if st := f.Stats()[0]; st.Kept != 2*5000 || st.Evicted != 2*5000-64 {
		t.Errorf("shared source stats %+v, want kept %d", st, 2*5000)
	}
}

func TestFlightNDJSONAndSummary(t *testing.T) {
	f := NewFlight(64, Policy{})
	rec := trace.NewRecorder(0)
	f.Attach("city-0", rec)

	// One request tree: root with two children covering part of it.
	root := rec.BeginSpan(0, "request", 42, 0)
	q := rec.BeginSpan(1, "queue", 0, root)
	rec.EndSpan(3, q)
	c := rec.BeginSpan(3, "compute", 0, root)
	rec.EndSpan(9, c)
	rec.EndSpan(10, root)

	var buf bytes.Buffer
	if err := f.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("NDJSON lines = %d, want 3: %q", len(lines), buf.String())
	}
	var fs FlightSpan
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Src != "city-0" || fs.Stage != "request" || fs.Trace != 42 {
		t.Errorf("last line = %+v, want the request root", fs)
	}

	sum := f.Summary()
	if sum.Spans != 3 {
		t.Errorf("summary spans = %d, want 3", sum.Spans)
	}
	if sum.SlowestRoot == nil || sum.SlowestRoot.Stage != "request" {
		t.Fatalf("slowest root = %+v, want request", sum.SlowestRoot)
	}
	// Critical path: request[0,1) queue[1,3) request[3,3) compute[3,9) request[9,10).
	var stages []string
	for _, seg := range sum.Critical {
		if seg.To > seg.From {
			stages = append(stages, seg.Stage)
		}
	}
	want := []string{"request", "queue", "compute", "request"}
	if len(stages) != len(want) {
		t.Fatalf("critical path stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("critical path stages = %v, want %v", stages, want)
		}
	}
	if len(sum.Stages) == 0 || sum.Stages[0].Stage != "request" {
		t.Errorf("stage summary = %+v, want request first (largest total)", sum.Stages)
	}
}

func TestFlightRegisterExportsCounters(t *testing.T) {
	f := NewFlight(8, Policy{})
	rec := trace.NewRecorder(0)
	f.Attach("src", rec)
	reg := metrics.NewRegistry()
	f.Register(reg)
	span(rec, 0, "stage", 1)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`df3_flight_spans_kept_total{src="src"} 1`,
		`df3_flight_sources 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestFlightSpanPathNoAlloc: a kept span filed straight into a full
// Flight ring, as the live ingest plane files one per settled line,
// allocates nothing.
func TestFlightSpanPathNoAlloc(t *testing.T) {
	f := NewFlight(64, Policy{})
	file := f.Hook("ingest")
	i := uint64(0)
	line := func() {
		i++
		at := sim.Time(i)
		file(trace.Span{ID: trace.SpanID(i), Trace: i, Stage: "ingest:edge",
			Begin: at, End: at + 0.01, Detail: "served"})
	}
	for k := 0; k < 128; k++ {
		line()
	}
	if allocs := testing.AllocsPerRun(1000, line); allocs != 0 {
		t.Errorf("kept span into a Flight ring allocates %v per op, want 0", allocs)
	}
	if st := f.Stats()[0]; st.Kept != i || st.Evicted != i-64 || st.SampledOut != 0 {
		t.Fatalf("ring stats %+v after %d spans into 64 slots", st, i)
	}
}

// BenchmarkSpan is one ingest line's span filed into its Flight ring as
// the line settles: sampled out by the policy, and kept at df3d's default
// 4096 spans per source.
func BenchmarkSpan(b *testing.B) {
	run := func(b *testing.B, pol Policy) {
		file := NewFlight(4096, pol).Hook("ingest")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i) + 1
			file(trace.Span{ID: trace.SpanID(k), Trace: k, Stage: "ingest:edge",
				Begin: sim.Time(i), End: sim.Time(i) + 0.01, Detail: "served"})
		}
	}
	b.Run("sampled-out", func(b *testing.B) { run(b, Policy{Default: -1}) })
	b.Run("flight", func(b *testing.B) { run(b, Policy{}) })
}
