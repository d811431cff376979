package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		okay bool
	}{
		{0, 0, false},
		{20, 0, false},
		{99, 0, false}, // p90 is rank 90: only 9 beyond
		{100, 90, true},
		{999, 90, true}, // p99 is rank 990: only 9 beyond
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.okay {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.okay)
		}
		if ok && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	v, p, ok := tail(xs)
	if !ok || p != 99 || v != 990 {
		t.Fatalf("tail = %v at p%v (%v), want 990 at p99", v, p, ok)
	}
	if _, _, ok := tail(xs[:50]); ok {
		t.Fatal("tail of 50 samples should be omitted")
	}
	if xs[0] != 1000 {
		t.Fatal("tail reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := selfTimes([]span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	})
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	if id != 0 || tr.finished() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("op", 0)
	child := tr.begin("call", root)
	grandchild := tr.begin("inner", child)
	open := tr.begin("call", root) // never ended: not reported
	tr.end(grandchild)
	tr.end(child)
	tr.end(root)
	other := tr.begin("op", 0)
	tr.end(tr.begin("call", other))
	tr.end(other)
	got := tr.finished()
	if len(got) != 5 || got[2].ID != grandchild || got[2].Op != root || got[2].Parent != child {
		t.Fatalf("spans = %+v (open span %d)", got, open)
	}
	if n := countPerOp(got, "call", "inner"); n[root] != 2 || n[other] != 1 || len(n) != 2 {
		t.Fatalf("countPerOp = %v", n)
	}
	if d := durations(got, "call", time.Nanosecond); len(d) != 2 || d[0] != float64(got[1].End-got[1].Start) {
		t.Fatalf("durations = %v", d)
	}
}

func TestHostSteal(t *testing.T) {
	a, ok := parseHostTicks("cpu  894838 0 67682 877677 1182 0 15517 40979 0 0")
	if !ok || a.steal != 40979 || a.total != 894838+67682+877677+1182+15517+40979 {
		t.Fatalf("parsed %+v, %v", a, ok)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3 4 5 6 7", "cpu 1 2 3 x 5 6 7 8"} {
		if h, ok := parseHostTicks(bad); ok {
			t.Errorf("parseHostTicks(%q) = %+v, want not ok", bad, h)
		}
	}
	b := hostTicks{total: a.total + 1000, steal: a.steal + 25}
	if got, want := stealNote(a, b), "host: hypervisor steal 2.50% of this machine's CPU time during the run (/proc/stat)"; got != want {
		t.Fatalf("stealNote = %q, want %q", got, want)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric and
// workload lists in step with what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q unknown to the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
