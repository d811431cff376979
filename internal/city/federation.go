package city

import (
	"fmt"
	"math"
	"strconv"

	"df3/internal/metrics"
	"df3/internal/network"
	"df3/internal/obs"
	"df3/internal/rng"
	"df3/internal/shard"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/units"
	"df3/internal/workload"
)

// A Federation is the nation-scale workload class: many cities, each a
// complete City scenario on its own private engine, coupled only through
// the inter-city Backbone and executed by the sharded kernel. The shard
// partition follows city order (cities are registered in geographic
// neighbourhood order), so shards inherit network/thermal locality, and the
// kernel's lookahead is the backbone's minimum delay — cross-city traffic
// is staged batch work, which is exactly what makes a usable lookahead.
//
// Every city derives its RNG universe from its own ForkNamed substream and
// every inter-city message carries a full backbone delay, so a federation
// run is byte-identical at any shard count, including one.
type FederationConfig struct {
	// Seed drives every city's substream and the offload generators.
	Seed uint64
	// Cities is the number of member cities.
	Cities int
	// Shards is the kernel worker count (default 1).
	Shards int
	// City is the per-city template; its Seed field is replaced by a
	// per-city substream of Seed.
	City Config
	// Backbone parameterises the inter-city WAN (zero value = default).
	Backbone network.BackboneSpec
}

// Federation is the built scenario.
type Federation struct {
	Cfg    FederationConfig
	Kernel *shard.Kernel
	// Backbone is the validated inter-city WAN every city pair shares.
	Backbone network.BackboneSpec
	Cities   []*City

	lps []*shard.LP
	// partition is the city→shard assignment applied at build.
	partition []int
	// exported/imported count inter-city jobs per city; slot i is only
	// touched from city i's engine, so shard workers never contend.
	exported []int64
	imported []int64
	recs     []*trace.Recorder
	registry *metrics.Registry
}

// BuildFederation wires the cities onto a sharded kernel. Every city's
// middleware keeps running statistics only (core.Middleware.StatsOnly):
// CityState and the checksum read latency means, no federation output
// reads an exact quantile, and a federation's memory must not grow with
// every request a season serves.
func BuildFederation(cfg FederationConfig) *Federation {
	if cfg.Cities < 1 {
		panic("city: federation needs at least one city")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Backbone == (network.BackboneSpec{}) {
		cfg.Backbone = network.DefaultBackbone()
	}
	bb := cfg.Backbone
	if bb.Latency <= 0 || bb.Staging < 0 || bb.Bandwidth <= 0 {
		panic(fmt.Sprintf("city: malformed backbone spec %+v", bb))
	}
	k := shard.NewKernel(cfg.Shards, bb.MinDelay())
	f := &Federation{
		Cfg: cfg, Kernel: k, Backbone: bb,
		exported: make([]int64, cfg.Cities),
		imported: make([]int64, cfg.Cities),
	}
	horizon := sim.Time(math.Inf(1))
	for i := 0; i < cfg.Cities; i++ {
		ccfg := cfg.City
		ccfg.Seed = rng.New(cfg.Seed).ForkNamed(fmt.Sprintf("city-%d", i)).Uint64()
		c := Build(ccfg)
		c.MW.StatsOnly()
		f.Cities = append(f.Cities, c)
		f.lps = append(f.lps, k.AddLP(fmt.Sprintf("city-%d", i), c.Engine, horizon))
	}
	assign := shard.PartitionContiguous(cfg.Cities, cfg.Shards, nil)
	k.Partition(assign)
	f.partition = assign
	// Inter-city traffic travels as (kind, payload) messages so a
	// federation partitioned across processes behaves identically to an
	// in-process one (remote.go holds the codec).
	k.SetDecoder(f.decodeMsg)
	return f
}

// Partition returns the city→shard assignment, in city order — the merge
// metadata a checkpoint records so a restore can prove the rebuilt
// federation partitions identically (per-shard snapshots only compose
// deterministically when the partition is the same).
func (f *Federation) Partition() []int {
	out := make([]int, len(f.partition))
	copy(out, f.partition)
	return out
}

// EngineStates captures every city engine's kernel-visible state, in city
// order. Each city lives on exactly one shard, so this is the federation's
// per-shard snapshot set; the engines must be quiescent (after Run, or at
// a paced slice boundary under Sync).
func (f *Federation) EngineStates() []sim.EngineState {
	out := make([]sim.EngineState, len(f.Cities))
	for i, c := range f.Cities {
		out[i] = c.Engine.Snapshot()
	}
	return out
}

// RestoreEngineStates verifies a rebuilt federation against checkpointed
// per-city engine states (see sim.RestoreEngine). Any divergence is fatal
// for a restore: continuing would fork history.
func (f *Federation) RestoreEngineStates(states []sim.EngineState) error {
	if len(states) != len(f.Cities) {
		return fmt.Errorf("city: restore has %d engine states for %d cities", len(states), len(f.Cities))
	}
	for i, c := range f.Cities {
		if err := sim.RestoreEngine(c.Engine, states[i]); err != nil {
			return fmt.Errorf("city %d: %w", i, err)
		}
	}
	return nil
}

// StartEdgeTraffic starts the per-building edge workload in every city.
func (f *Federation) StartEdgeTraffic(until sim.Time, rateScale float64) {
	for _, c := range f.Cities {
		c.StartEdgeTraffic(until, rateScale)
	}
}

// StartDCCTraffic starts each city's local operator batch stream.
func (f *Federation) StartDCCTraffic(until sim.Time, jobsPerHour float64) {
	for _, c := range f.Cities {
		c.StartDCCTraffic(until, jobsPerHour)
	}
}

// StartInterCityDCC launches the federation's boundary workload: each city
// exports batch jobs at the given rate to other member cities, staged over
// the backbone. Destinations and job shapes come from the exporting city's
// own substream, so the traffic matrix is a pure function of the seed.
func (f *Federation) StartInterCityDCC(until sim.Time, jobsPerHour float64) {
	if jobsPerHour <= 0 || f.Cfg.Cities < 2 {
		return
	}
	rate := jobsPerHour / 3600
	for i := range f.Cities {
		i := i
		src := f.Cities[i]
		stream := rng.New(f.Cfg.Seed).ForkNamed(fmt.Sprintf("offload-%d", i))
		e := src.Engine
		jobID := uint64(0)
		var schedule func()
		schedule = func() {
			at := e.Now() + stream.Exp(rate)
			if at > until {
				return
			}
			e.AtTransient(at, func() {
				frames := 8 + stream.Intn(25)
				works := make([]float64, frames)
				for w := range works {
					works[w] = stream.Pareto(120, 2.2)
				}
				jobID++
				job := workload.BatchJob{
					ID:       uint64(i)<<32 | jobID,
					TaskWork: works,
					Input:    2e6, Output: 1e6,
				}
				d := stream.Intn(f.Cfg.Cities - 1)
				if d >= i {
					d++
				}
				f.submitRemote(i, d, job)
				schedule()
			})
		}
		schedule()
	}
}

// submitRemote ships one batch job src→dst across the backbone: the
// source city counts the export, the backbone prices the delay, and the
// kernel mailbox delivers into the destination city's middleware. The job
// goes as a serialisable payload (decoded by decodeMsg on the owning
// node), so the same path serves in-process shards and cross-process
// workers identically.
func (f *Federation) submitRemote(srcCity, dstCity int, job workload.BatchJob) {
	size := units.Byte(float64(job.Input) * float64(len(job.TaskWork)))
	delay := f.Backbone.Delay(size)
	f.exported[srcCity]++
	f.Kernel.SendMsg(f.lps[srcCity], f.lps[dstCity], delay, size, MsgKindInterCityJob, encodeJob(job))
}

// Now returns the federation's global clock (see shard.Kernel.Now).
func (f *Federation) Now() sim.Time { return f.Kernel.Now() }

// Run advances the whole federation to `until` under the sharded kernel,
// as fast as events execute.
func (f *Federation) Run(until sim.Time) { f.Kernel.Run(until) }

// EnableTracing gives every city its own span recorder (recorders are not
// concurrency-safe, and cities on different shards trace concurrently),
// each capped at `capacity` spans, registered as one process per city.
// MergedTrace folds them into a single export after the run.
func (f *Federation) EnableTracing(capacity int) {
	f.recs = make([]*trace.Recorder, len(f.Cities))
	for i, c := range f.Cities {
		rec := trace.NewRecorder(capacity)
		rec.BeginProcess(fmt.Sprintf("city-%d", i))
		c.EnableTracing(rec)
		f.recs[i] = rec
	}
}

// AttachFlight streams every city recorder's completed spans into the
// flight recorder, one ring per city (EnableTracing must have been called
// first — it creates the recorders). The sink fires on the recording
// goroutine, i.e. the city's shard worker; Flight gives each source its
// own ring, so workers never contend. Attaching is pure observation: a
// run with a flight recorder is byte-identical to one without
// (checksum-asserted in tests).
func (f *Federation) AttachFlight(fl *obs.Flight) {
	if f.recs == nil {
		panic("city: AttachFlight before EnableTracing")
	}
	for i, rec := range f.recs {
		fl.Attach(fmt.Sprintf("city-%d", i), rec)
	}
}

// MergedTrace merges the per-city recorders, in city order, into one
// recorder for export. It returns nil when tracing was never enabled.
func (f *Federation) MergedTrace() *trace.Recorder {
	if f.recs == nil {
		return nil
	}
	out := trace.NewRecorder(0)
	for _, rec := range f.recs {
		out.Merge(rec)
	}
	return out
}

// Exported returns the number of jobs city i shipped to other cities.
func (f *Federation) Exported(i int) int64 { return f.exported[i] }

// Imported returns the number of jobs city i received from other cities.
func (f *Federation) Imported(i int) int64 { return f.imported[i] }

// Summary aggregates the federation's headline counters across cities.
type Summary struct {
	Cities                            int
	EdgeSubmitted, EdgeServed         int64
	JobsSubmitted, JobsDone, JobsLost int64
	WorkDone                          float64
	Exported, Imported                int64
	EventsFired                       uint64
}

// CityState is one city's observable outcome: every ledger, clock and
// counter that Summary and Checksum fold over. It is the unit of result
// merging for a multi-node run — each worker reports the CityStates of
// the cities it owns, and the coordinator reassembles the exact Summary
// and Checksum a single-process run computes, because both are defined
// as pure functions of these records (SummarizeStates, ChecksumStates).
// The statefp contract pins the reader, the checksum and the wire codec
// to this field set: adding a field without extending all four is a
// df3lint finding.
//
//df3:statefp df3/internal/city.Federation.CityState df3/internal/city.ChecksumStates df3/internal/wire.encodeCityState df3/internal/wire.decodeCityState
type CityState struct {
	City            int
	EdgeSubmitted   int64
	EdgeServed      int64
	EdgeRejected    int64
	JobsSubmitted   int64
	JobsDone        int64
	JobsLost        int64
	TasksDone       int64
	WorkDone        float64
	EdgeLatencyMean float64
	EventsFired     uint64
	SimTime         sim.Time
	Exported        int64
	Imported        int64
}

// CityState reads city i's observable outcome. Call it only on the node
// that owns city i (elsewhere the city never ran).
func (f *Federation) CityState(i int) CityState {
	c := f.Cities[i]
	return CityState{
		City:            i,
		EdgeSubmitted:   c.MW.Edge.Submitted.Value(),
		EdgeServed:      c.MW.Edge.Served.Value(),
		EdgeRejected:    c.MW.Edge.Rejected.Value(),
		JobsSubmitted:   c.MW.DCC.JobsSubmitted.Value(),
		JobsDone:        c.MW.DCC.JobsDone.Value(),
		JobsLost:        c.MW.DCC.JobsLost.Value(),
		TasksDone:       c.MW.DCC.TasksDone.Value(),
		WorkDone:        c.MW.DCC.WorkDone,
		EdgeLatencyMean: c.MW.Edge.Latency.Mean(),
		EventsFired:     c.Engine.Fired(),
		SimTime:         c.Engine.Now(),
		Exported:        f.exported[i],
		Imported:        f.imported[i],
	}
}

// CityStates reads every city's observable outcome, in city order.
func (f *Federation) CityStates() []CityState {
	out := make([]CityState, len(f.Cities))
	for i := range f.Cities {
		out[i] = f.CityState(i)
	}
	return out
}

// SummarizeStates folds per-city records into one Summary.
func SummarizeStates(states []CityState) Summary {
	s := Summary{Cities: len(states)}
	for _, cs := range states {
		s.EdgeSubmitted += cs.EdgeSubmitted
		s.EdgeServed += cs.EdgeServed
		s.JobsSubmitted += cs.JobsSubmitted
		s.JobsDone += cs.JobsDone
		s.JobsLost += cs.JobsLost
		s.WorkDone += cs.WorkDone
		s.Exported += cs.Exported
		s.Imported += cs.Imported
		s.EventsFired += cs.EventsFired
	}
	return s
}

// Summarize folds every city's ledgers into one Summary.
func (f *Federation) Summarize() Summary {
	return SummarizeStates(f.CityStates())
}

// ChecksumStates folds per-city records — which must be in city order;
// the fold is deliberately order-sensitive — into the federation digest.
func ChecksumStates(states []CityState) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mixF := func(v float64) { mix(math.Float64bits(v)) }
	for _, cs := range states {
		mix(uint64(cs.City))
		mix(uint64(cs.EdgeSubmitted))
		mix(uint64(cs.EdgeServed))
		mix(uint64(cs.EdgeRejected))
		mix(uint64(cs.JobsSubmitted))
		mix(uint64(cs.JobsDone))
		mix(uint64(cs.JobsLost))
		mix(uint64(cs.TasksDone))
		mixF(cs.WorkDone)
		mixF(cs.EdgeLatencyMean)
		mix(cs.EventsFired)
		mixF(float64(cs.SimTime))
		mix(uint64(cs.Exported))
		mix(uint64(cs.Imported))
	}
	return h
}

// Checksum folds every city's observable outcome — ledgers, latency sums,
// event counts, clocks — into one FNV-1a digest, in city order. Two runs of
// the same federation are equivalent iff their checksums match; E19, the
// equivalence tests and the multi-node coordinator compare it across
// shard counts, node counts and process boundaries.
func (f *Federation) Checksum() uint64 {
	return ChecksumStates(f.CityStates())
}

// Observability builds (once) the federation's labeled registry: kernel and
// boundary series labeled by shard, plus each city's headline ledgers
// labeled {city, shard}. Scrape after Run (or between Runs): read-through
// funcs touch live engine state.
func (f *Federation) Observability() *metrics.Registry {
	if f.registry != nil {
		return f.registry
	}
	r := metrics.NewRegistry()
	f.registry = r

	r.GaugeFunc("df3_shard_windows", "synchronization windows executed by this kernel's own Run (0 on a partition a coordinator drives)", nil,
		func() float64 { return float64(f.Kernel.Stats().Windows) })
	r.GaugeFunc("df3_shard_speedup", "critical-path speedup over the serial kernel", nil,
		func() float64 { return f.Kernel.Stats().Speedup() })
	r.CounterFunc("df3_shard_messages_total", "cross-LP messages through the kernel", nil,
		func() int64 { return f.Kernel.Stats().Sent })
	r.CounterFunc("df3_shard_cross_shard_messages_total", "messages that crossed a shard boundary", nil,
		func() int64 { return f.Kernel.Stats().CrossShard })
	r.CounterFunc("df3_backbone_messages_total", "inter-city transfers on the backbone", nil,
		func() int64 {
			var n int64
			for _, e := range f.exported {
				n += e
			}
			return n
		})
	for s := 0; s < f.Kernel.Shards(); s++ {
		s := s
		labels := metrics.Labels{"shard": strconv.Itoa(s)}
		r.GaugeFunc("df3_shard_boundary_bytes_total", "bytes sent across shard boundaries, by source shard",
			labels, func() float64 {
				var total float64
				for _, p := range f.Kernel.Boundary() {
					if p.SrcShard == s && p.DstShard != s {
						total += p.Bytes
					}
				}
				return total
			})
		// Profiler read-throughs report 0 until Kernel.EnableProfile; the
		// kernel's barrier orders worker writes before a quiescent scrape.
		r.GaugeFunc("df3_shard_busy_seconds", "profiled wall time advancing this shard's engines",
			labels, func() float64 { return f.Kernel.BusySeconds(s) })
		r.GaugeFunc("df3_shard_idle_seconds", "profiled barrier-idle wall time for this shard",
			labels, func() float64 { return f.Kernel.IdleSeconds(s) })
	}
	for i, c := range f.Cities {
		i, c := i, c
		labels := metrics.Labels{
			"city":  strconv.Itoa(i),
			"shard": strconv.Itoa(f.lps[i].Shard()),
		}
		r.GaugeFunc("df3_city_sim_time_seconds", "per-city simulated time", labels,
			func() float64 { return c.Engine.Now() })
		r.CounterFunc("df3_city_events_fired_total", "per-city kernel events", labels,
			func() int64 { return int64(c.Engine.Fired()) })
		r.CounterFunc("df3_city_edge_served_total", "edge requests served, by city", labels,
			c.MW.Edge.Served.Value)
		r.CounterFunc("df3_city_dcc_jobs_done_total", "batch jobs completed, by city", labels,
			c.MW.DCC.JobsDone.Value)
		r.CounterFunc("df3_city_jobs_exported_total", "jobs shipped to other cities", labels,
			func() int64 { return f.exported[i] })
		r.CounterFunc("df3_city_jobs_imported_total", "jobs received from other cities", labels,
			func() int64 { return f.imported[i] })
		if f.recs != nil {
			rec := f.recs[i]
			r.CounterFunc("df3_trace_dropped_spans_total", "completed spans evicted from the city's trace ring", labels,
				rec.DroppedSpans)
		}
	}
	return r
}
