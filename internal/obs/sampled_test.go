package obs

import (
	"bytes"
	"strings"
	"testing"

	df3metrics "df3/internal/metrics"
	"df3/internal/sim"
	"df3/internal/trace"
)

func TestSampledRootDecisionPropagates(t *testing.T) {
	rec := trace.NewRecorder(0)
	s := NewSampled(rec, Policy{Class: map[string]int{"edge": -1, "dcc": 1}})

	// Sampled-out root: everything downstream must vanish.
	root := s.BeginRoot(0, "ingest:edge", "edge", 3, 100)
	if root != 0 {
		t.Fatalf("edge root sampled in despite drop policy: id %d", root)
	}
	child := s.BeginSpan(1, "apply", 100, root)
	if child != 0 {
		t.Fatalf("child of sampled-out root got id %d", child)
	}
	s.Instant(1, "outcome", 100, root, "served")
	s.EndSpan(2, root)
	if got := len(rec.Spans()); got != 0 {
		t.Fatalf("recorder holds %d spans after sampled-out request", got)
	}
	if rec.UnmatchedEnds() != 0 || rec.OrphanBegins() != 0 {
		t.Fatalf("hygiene counters moved: unmatched %d orphans %d",
			rec.UnmatchedEnds(), rec.OrphanBegins())
	}

	// Admitted root: the full tree records.
	root = s.BeginRoot(0, "ingest:dcc", "dcc", 3, 101)
	if root == 0 {
		t.Fatal("dcc root sampled out despite keep policy")
	}
	child = s.BeginSpan(1, "apply", 0, root)
	s.EndSpan(2, child)
	s.Instant(2, "outcome", 0, root, "served")
	s.EndSpan(3, root)
	if got := len(rec.Spans()); got != 3 {
		t.Fatalf("recorder holds %d spans, want 3", got)
	}
	if s.Admitted() != 1 || s.SampledOut() != 1 {
		t.Errorf("admitted %d sampled-out %d, want 1 and 1", s.Admitted(), s.SampledOut())
	}
}

func TestSampledNilSafe(t *testing.T) {
	var s *Sampled
	if id := s.BeginRoot(0, "x", "edge", 1, 1); id != 0 {
		t.Fatal("nil Sampled returned a span id")
	}
	s.EndSpan(1, 0)
	s.Instant(1, "x", 0, 0, "")
	if s.Admitted() != 0 || s.SampledOut() != 0 {
		t.Fatal("nil Sampled counted something")
	}
	// Nil recorder inside a non-nil wrapper.
	s2 := NewSampled(nil, Policy{})
	if id := s2.BeginRoot(0, "x", "edge", 1, 1); id != 0 {
		t.Fatal("nil-recorder Sampled returned a span id")
	}
	if s2.Recorder() != nil {
		t.Fatal("Recorder() should be nil")
	}
}

func TestRegisterRuntimeExports(t *testing.T) {
	reg := df3metrics.NewRegistry()
	RegisterRuntime(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"df3_go_goroutines",
		"df3_go_heap_objects_bytes",
		"df3_go_memory_total_bytes",
		"df3_go_gc_cycles_total",
		`df3_go_gc_pause_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %s:\n%s", name, out)
		}
	}
	// A live process always has goroutines.
	parsed, err := df3metrics.ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if parsed["df3_go_goroutines"] < 1 {
		t.Errorf("df3_go_goroutines = %v, want >= 1", parsed["df3_go_goroutines"])
	}
}

// TestFlightSpanPathNoAlloc: a kept request root begun and ended through
// Sampled into a Flight ring allocates nothing once the ring is full —
// the recorder hands the span to the ring and keeps no copy.
func TestFlightSpanPathNoAlloc(t *testing.T) {
	f := NewFlight(64, Policy{})
	rec := trace.NewRecorder(64)
	f.Attach("ingest", rec)
	s := NewSampled(rec, Policy{})
	i := uint64(0)
	root := func() {
		i++
		id := s.BeginRoot(sim.Time(i), "ingest:edge", "edge", i, i)
		s.EndSpanDetail(sim.Time(i)+0.01, id, "served")
	}
	for k := 0; k < 128; k++ {
		root()
	}
	if allocs := testing.AllocsPerRun(1000, root); allocs != 0 {
		t.Errorf("kept span into a Flight ring allocates %v per op, want 0", allocs)
	}
	if st := f.Stats()[0]; st.Kept != i || len(rec.Spans()) != 0 || rec.DroppedSpans() != 0 {
		t.Fatalf("ring kept %d of %d spans; recorder kept %d, dropped %d",
			st.Kept, i, len(rec.Spans()), rec.DroppedSpans())
	}
}

// BenchmarkSpan is one ingest request's root span, begun and ended on the
// live path: with tracing off (a nil Sampled), sampled out by the policy,
// and kept into a Flight ring at df3d's default 4096 spans per source.
func BenchmarkSpan(b *testing.B) {
	run := func(b *testing.B, s *Sampled) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := uint64(i) + 1
			id := s.BeginRoot(sim.Time(i), "ingest:edge", "edge", k, k)
			s.EndSpanDetail(sim.Time(i)+0.01, id, "served")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("sampled-out", func(b *testing.B) {
		run(b, NewSampled(trace.NewRecorder(4096), Policy{Default: -1}))
	})
	b.Run("flight", func(b *testing.B) {
		f := NewFlight(4096, Policy{})
		rec := trace.NewRecorder(4096)
		f.Attach("ingest", rec)
		run(b, NewSampled(rec, Policy{}))
	})
}
