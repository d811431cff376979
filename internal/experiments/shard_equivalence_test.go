package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"df3/internal/trace"
)

// render serializes a Result exactly as df3bench prints it.
func render(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// atProcs runs f with runtime.GOMAXPROCS set to procs, restoring it after.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestShardedArmsByteIdentical is the experiment-level determinism
// contract: the multi-arm experiments spread their arms over the fanout
// pool, which runs them in order on the calling goroutine under
// GOMAXPROCS(1) and on four workers under GOMAXPROCS(4). The rendered
// results must not depend on which branch ran. This is the quick-mode twin
// of the CI smoke that diffs full-fidelity output against the committed
// full_bench_results.txt.
func TestShardedArmsByteIdentical(t *testing.T) {
	for _, exp := range []struct {
		id  string
		run func(Options) *Result
	}{
		{"E2", E2PUE},
		{"E8", E8EdgeLatency},
		{"E18", E18Chaos},
		{"E19", E19ShardScale},
	} {
		var serial, parallel string
		atProcs(1, func() { serial = render(t, exp.run(Options{Seed: 1, Quick: true})) })
		atProcs(4, func() { parallel = render(t, exp.run(Options{Seed: 1, Quick: true})) })
		if serial != parallel {
			t.Errorf("%s: output depends on GOMAXPROCS\n--- 1 ---\n%s\n--- 4 ---\n%s",
				exp.id, serial, parallel)
		}
	}
}

// TestE18ShardedTracingMerges: a traced E18 records each chaos scenario into
// its own recorder and merges them into o.Tracer in scenario order. Whether
// the arms ran in order (GOMAXPROCS(1)) or on four workers (GOMAXPROCS(4)),
// the merge into one bounded recorder must keep the same processes, the
// same retained spans in the same order, unique span ids and the same
// eviction count.
func TestE18ShardedTracingMerges(t *testing.T) {
	type outcome struct {
		text    string
		procs   []string
		spans   []trace.Span
		dropped int64
	}
	run := func(procs int) (o outcome) {
		atProcs(procs, func() {
			rec := trace.NewRecorder(4096)
			o.text = render(t, E18Chaos(Options{Seed: 1, Quick: true, Tracer: rec}))
			o.procs, o.spans, o.dropped = rec.Processes(), rec.Spans(), rec.DroppedSpans()
		})
		return o
	}
	serial, parallel := run(1), run(4)
	if serial.text != parallel.text {
		t.Errorf("traced output depends on GOMAXPROCS\n--- 1 ---\n%s\n--- 4 ---\n%s", serial.text, parallel.text)
	}
	if len(serial.procs) != 9 || !reflect.DeepEqual(serial.procs, parallel.procs) {
		t.Errorf("E18 trace processes: GOMAXPROCS(1) %q, GOMAXPROCS(4) %q", serial.procs, parallel.procs)
	}
	if serial.dropped == 0 {
		t.Fatal("E18 evicted no spans from a 4096-span recorder; the bound is untested")
	}
	if serial.dropped != parallel.dropped {
		t.Errorf("E18 trace dropped %d spans at GOMAXPROCS(1), %d at GOMAXPROCS(4)", serial.dropped, parallel.dropped)
	}
	if !reflect.DeepEqual(serial.spans, parallel.spans) {
		t.Errorf("E18 retained spans differ between GOMAXPROCS(1) (%d) and GOMAXPROCS(4) (%d)",
			len(serial.spans), len(parallel.spans))
	}
	seen := map[trace.SpanID]bool{}
	for _, s := range parallel.spans {
		if seen[s.ID] {
			t.Fatalf("span id %d duplicated after merge", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestE19QuickDeterminism: the sweep itself reports identical checksums at
// every shard count, and the headline findings exist.
func TestE19QuickDeterminism(t *testing.T) {
	r := E19ShardScale(Options{Seed: 1, Quick: true})
	if r.Findings["identical_all"] != 1 {
		t.Fatal("E19 reports shard-dependent results")
	}
	if r.Findings["speedup_4x_2s"] <= 1 {
		t.Errorf("no parallelism at 2 shards: %v", r.Findings["speedup_4x_2s"])
	}
}
