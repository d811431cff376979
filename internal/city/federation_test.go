package city

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"df3/internal/metrics"
	"df3/internal/obs"
	"df3/internal/shard"
	"df3/internal/sim"
)

func smallFederation(cities, shards int) *Federation {
	cfg := DefaultConfig()
	cfg.Buildings = 2
	cfg.RoomsPerBuilding = 3
	cfg.DatacenterNodes = 2
	return BuildFederation(FederationConfig{
		Seed: 1, Cities: cities, Shards: shards, City: cfg,
	})
}

func runFederation(f *Federation, horizon sim.Time) {
	f.StartEdgeTraffic(horizon, 0.5)
	f.StartInterCityDCC(horizon, 2)
	f.Run(horizon + sim.Hour)
}

// TestFederationShardEquivalence is the federation-level determinism
// contract: identical checksums (ledgers, latencies, event counts, clocks)
// at 1, 2 and 4 shards.
func TestFederationShardEquivalence(t *testing.T) {
	const horizon = 6 * sim.Hour
	ref := smallFederation(5, 1)
	runFederation(ref, horizon)
	want := ref.Checksum()
	if ref.Summarize().Exported == 0 {
		t.Fatal("no inter-city traffic generated; equivalence test is vacuous")
	}
	for _, shards := range []int{2, 4} {
		f := smallFederation(5, shards)
		runFederation(f, horizon)
		if got := f.Checksum(); got != want {
			t.Errorf("shards=%d checksum %x, want %x (serial)", shards, got, want)
		}
		if f.Kernel.Stats().CrossShard == 0 {
			t.Errorf("shards=%d: no cross-shard messages; partition degenerate", shards)
		}
	}
}

// TestChecksumCoversEveryField: perturbing any single CityState field must
// change ChecksumStates. This is the runtime half of the df3:statefp
// contract on CityState; it caught JobsLost being skipped by the digest,
// which let a run that lost jobs checksum-match one that did not.
func TestChecksumCoversEveryField(t *testing.T) {
	base := []CityState{{
		City: 1, EdgeSubmitted: 2, EdgeServed: 3, EdgeRejected: 4,
		JobsSubmitted: 5, JobsDone: 6, JobsLost: 7, TasksDone: 8,
		WorkDone: 9.5, EdgeLatencyMean: 10.5, EventsFired: 11,
		SimTime: 12 * sim.Hour, Exported: 13, Imported: 14,
	}}
	want := ChecksumStates(base)
	rt := reflect.TypeOf(base[0])
	for i := 0; i < rt.NumField(); i++ {
		mutated := base[0]
		fv := reflect.ValueOf(&mutated).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Uint64:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 1)
		default:
			t.Fatalf("field %s has kind %v; teach this test to mutate it", rt.Field(i).Name, fv.Kind())
		}
		if got := ChecksumStates([]CityState{mutated}); got == want {
			t.Errorf("changing %s did not change the checksum: the digest silently drops it", rt.Field(i).Name)
		}
	}
}

// TestFederationOffloadDelivery: exported jobs arrive (allowing for the
// backbone staging in flight at the horizon) and land in remote ledgers.
func TestFederationOffloadDelivery(t *testing.T) {
	f := smallFederation(3, 2)
	const horizon = 6 * sim.Hour
	runFederation(f, horizon)
	s := f.Summarize()
	if s.Exported == 0 {
		t.Fatal("no jobs exported")
	}
	if s.Imported == 0 || s.Imported > s.Exported {
		t.Fatalf("imported %d of %d exported", s.Imported, s.Exported)
	}
	// Everything imported was submitted to a middleware.
	if s.JobsSubmitted < s.Imported {
		t.Fatalf("jobs submitted %d < imported %d", s.JobsSubmitted, s.Imported)
	}
	if s.EdgeServed == 0 {
		t.Fatal("no edge traffic served")
	}
}

// TestFederationTracingMerge: per-city recorders merge into one process per
// city with no span-id collisions and no cross-process parents.
func TestFederationTracingMerge(t *testing.T) {
	f := smallFederation(3, 2)
	f.EnableTracing(0)
	runFederation(f, 2*sim.Hour)
	merged := f.MergedTrace()
	if merged == nil {
		t.Fatal("no merged trace")
	}
	procs := merged.Processes()
	if len(procs) != 3 || procs[0] != "city-0" || procs[2] != "city-2" {
		t.Fatalf("merged processes = %v", procs)
	}
	spans := merged.Spans()
	if len(spans) == 0 {
		t.Fatal("merged trace is empty")
	}
	seen := map[uint64]int{}
	for _, sp := range spans {
		if sp.Proc < 1 || sp.Proc > 3 {
			t.Fatalf("span %d has process %d outside [1,3]", sp.ID, sp.Proc)
		}
		if n, dup := seen[uint64(sp.ID)]; dup {
			t.Fatalf("span id %d appears %d times after merge", sp.ID, n+1)
		}
		seen[uint64(sp.ID)] = 1
	}
}

// TestFlightAndProfilePureObservation is the live-telemetry determinism
// contract: a federation with the flight recorder streaming every city's
// spans AND the kernel profiler accounting busy/idle/limiters reaches a
// checksum byte-identical to a bare run of the same config.
func TestFlightAndProfilePureObservation(t *testing.T) {
	const horizon = 4 * sim.Hour
	bare := smallFederation(4, 2)
	runFederation(bare, horizon)
	want := bare.Checksum()

	obsd := smallFederation(4, 2)
	obsd.EnableTracing(0)
	fl := obs.NewFlight(256, obs.Policy{Default: 2})
	obsd.AttachFlight(fl)
	obsd.Kernel.EnableProfile()
	runFederation(obsd, horizon)

	if got := obsd.Checksum(); got != want {
		t.Fatalf("observed run checksum %x, want %x (bare)", got, want)
	}
	if len(fl.Snapshot()) == 0 {
		t.Fatal("flight recorder retained no spans; purity test is vacuous")
	}
	rep, ok := obsd.Kernel.ProfileReport()
	if !ok || rep.Windows == 0 {
		t.Fatalf("profiler produced no report (ok=%v windows=%d)", ok, rep.Windows)
	}
	var sampledOut uint64
	for _, st := range fl.Stats() {
		sampledOut += st.SampledOut
	}
	if sampledOut == 0 {
		t.Fatal("sampling policy rejected nothing at rate 2; sampling untested")
	}
}

// TestAttachFlightRequiresTracing: attaching before EnableTracing is a
// programming error, not a silent no-op.
func TestAttachFlightRequiresTracing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AttachFlight without EnableTracing did not panic")
		}
	}()
	smallFederation(2, 1).AttachFlight(obs.NewFlight(16, obs.Policy{}))
}

// scrape writes a federation's registry and parses it back.
func scrape(t *testing.T, f *Federation) (string, map[string]float64) {
	t.Helper()
	var b strings.Builder
	if err := f.Observability().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series, err := metrics.ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), series
}

// TestFederationReportsDroppedSpans: a traced federation whose city rings
// overflow says so on its registry, per city, with the recorders' own
// eviction counts; an untraced federation exports no such series.
func TestFederationReportsDroppedSpans(t *testing.T) {
	f := smallFederation(2, 1)
	f.EnableTracing(8)
	runFederation(f, 2*sim.Hour)
	_, series := scrape(t, f)
	for i := range f.Cities {
		key := fmt.Sprintf(`df3_trace_dropped_spans_total{city="%d",shard="0"}`, i)
		got, ok := series[key]
		if !ok || got <= 0 {
			t.Fatalf("%s = %v (present %v), want > 0 from an 8-span ring", key, got, ok)
		}
		if want := f.recs[i].DroppedSpans(); got != float64(want) {
			t.Errorf("%s = %v, recorder dropped %d", key, got, want)
		}
	}
	if text, _ := scrape(t, smallFederation(2, 1)); strings.Contains(text, "df3_trace_dropped_spans_total") {
		t.Error("an untraced federation exports df3_trace_dropped_spans_total")
	}
}

// TestFederationObservability: the registry exposes shard-labeled series
// and per-city ledgers that match the live counters, and the backbone
// counter equals the exports of the cities a partition owns.
func TestFederationObservability(t *testing.T) {
	f := smallFederation(3, 2)
	runFederation(f, 2*sim.Hour)
	text, series := scrape(t, f)
	for _, want := range []string{
		`df3_city_edge_served_total{city="0",shard="0"}`,
		`df3_city_edge_served_total{city="2",shard="1"}`,
		`df3_shard_cross_shard_messages_total`,
		`df3_shard_boundary_bytes_total{shard="0"}`,
		`df3_shard_busy_seconds{shard="1"}`,
		`df3_shard_idle_seconds{shard="0"}`,
		`df3_backbone_messages_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
	exported := f.Summarize().Exported
	if exported == 0 {
		t.Fatal("no inter-city traffic generated; backbone counter untested")
	}
	if got := series["df3_backbone_messages_total"]; got != float64(exported) {
		t.Errorf("df3_backbone_messages_total = %v, want %d exported", got, exported)
	}

	// Two restricted partitions of one spec, as df3coord drives them:
	// each counts only its own cities' exports, and together they count
	// the unrestricted run's.
	spec := testSpec()
	serial := spec.Build(1)
	serial.Run(spec.Until())
	owned := [][]int{{0, 1}, {2, 3, 4}}
	feds := make([]*Federation, len(owned))
	parts := make([]shard.Part, len(owned))
	for p, cities := range owned {
		feds[p] = spec.Build(2)
		feds[p].Restrict(cities)
		parts[p] = feds[p].Kernel
	}
	sy, err := shard.NewSync(feds[0].Backbone.MinDelay(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sy.Run(spec.Until()); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for p, cities := range owned {
		var want int64
		for _, ci := range cities {
			want += serial.Exported(ci)
		}
		_, series := scrape(t, feds[p])
		got := series["df3_backbone_messages_total"]
		if got != float64(want) {
			t.Errorf("partition %d: df3_backbone_messages_total = %v, want %d (its cities' exports)", p, got, want)
		}
		sum += got
	}
	if want := serial.Summarize().Exported; want == 0 || sum != float64(want) {
		t.Errorf("partitions count %v backbone messages, unrestricted run exported %d", sum, want)
	}
}
