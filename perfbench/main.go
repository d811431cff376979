// Command perfbench is df3's end-to-end benchmark. It runs one workload
// in this process, generates all of its load from --seed, checks that
// the program's results are correct, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload fed-wire --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - fed-wire: df3coord's default federation (8 cities × 4 buildings ×
//     6 rooms, half a day) split over two wire.Serve workers on loopback
//     TCP, driven by shard.Sync through two wire.Clients.
//   - live-ingest: df3d's live serving plane (2 cities × 2 shards at
//     120× speed, arrival log and checkpoints on disk, flight recorder)
//     under a closed loop of two keep-alive connections POSTing NDJSON
//     batches to /v1/ingest.
//   - wal-recovery: a restart of the live-ingest server shape from a
//     seed-generated WAL and a checkpoint cut partway through it.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, gathered by the observing
// wrappers in wrap.go, and the tracing overhead. Spans are written to
// <scratch>/trace/ at exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_us_per_item", "us"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. Every workload prints
// all of them; a layer the workload does not cross reads 0.
var perLayer = []metricDef{
	// fed-wire
	{"shard.windows", "count"},
	{"wire.round_trips", "count"},
	{"wire.rtt_us_p50", "us"},
	{"wire.window_us_p50", "us"},
	{"wire.bytes", "B"},
	{"wire.worker_busy_s", "s"},
	{"wire.worker_wait_s", "s"},
	{"shard.boundary_msgs", "count"},
	{"sim.events", "count"},
	{"shard.speedup", "x"},
	// live-ingest
	{"api.handler_ms_p50", "ms"},
	{"api.handler_ms_tail", "ms"},
	{"api.line_wall_ms_p50", "ms"},
	{"api.line_sim_ms_p50", "ms"},
	{"sim.slices", "count"},
	{"sim.lag_s", "s"},
	{"metrics.scrape_ms_p50", "ms"},
	{"metrics.scrape_ms_tail", "ms"},
	{"checkpoint.writes", "count"},
	{"api.wal_bytes_per_item", "B"},
	{"obs.spans_kept", "count"},
	{"obs.spans_evicted", "count"},
	// wal-recovery
	{"api.parse_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"city.build_ms", "ms"},
	{"api.recover_ms", "ms"},
	{"api.replay_prefix_ms", "ms"},
	{"checkpoint.verify_ms", "ms"},
	{"api.replay_suffix_ms", "ms"},
	// every workload
	{"runtime.alloc_kb_per_item", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scratch  string // directory for run files, traces and the build
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64

	setups []time.Duration // every set-up the run performed
	ops    []time.Duration // untraced timed operations
	traced []time.Duration // traced timed operations (trace mode)
	items  float64         // items completed by the untraced operations
	timed  time.Duration   // wall time those items took
	cpu    time.Duration   // process CPU over the same interval
	rssKiB int64           // peak RSS at the end of the timed phase
	opName string          // what one operation is, for the tail line

	layer map[string]float64 // per-layer values (trace mode)
	notes []string           // human-readable report lines
}

// workloads maps a workload name to its runner. The tracer is nil on
// untraced runs.
var workloads = map[string]func(cfg config, tr *tracer) (*outcome, error){
	"fed-wire":     runFedWire,
	"live-ingest":  runLiveIngest,
	"wal-recovery": runWALRecovery,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "fed-wire, live-ingest or wal-recovery")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 25, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for run files and traces")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fed-wire|live-ingest|wal-recovery, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1

	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, seconds, traceFlag)
	fmt.Printf("# run: commit=%s go=%s GOMAXPROCS=%d nproc=%d seed=%d\n",
		commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.seed)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	host0, hostOK := readHostTicks()
	out, err := run(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if host1, ok := readHostTicks(); ok && hostOK {
		out.notes = append(out.notes, stealNote(host0, host1))
	}
	for _, n := range out.notes {
		fmt.Println("# " + n)
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed}
	if cfg.trace {
		if res.Metrics, err = layerMetrics(out); err == nil {
			err = dumpSpans(cfg, tr)
		}
	} else {
		res.Metrics = endToEndMetrics(out)
	}
	var b []byte
	if err == nil {
		b, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: a correctness gate failed\n", cfg.workload)
		os.Exit(1)
	}
}

// minOps is how many timed operations a run makes however short
// --seconds is: a traced run alternates untraced and traced operations
// and needs one of each to state the tracing overhead.
func minOps(cfg config) int {
	if cfg.trace {
		return 2
	}
	return 1
}

// endToEndMetrics derives the untraced result and prints the tail line.
func endToEndMetrics(o *outcome) map[string]metric {
	opsMs := in(o.ops, time.Millisecond)
	v, p, ok := tail(opsMs)
	fmt.Println("# " + tailNote("tail_ms", v, p, ok, len(opsMs), o.opName))
	items := o.items
	if items <= 0 {
		items = 1 // nothing completed; keep the ratios finite
	}
	rate := 0.0
	if o.timed > 0 {
		rate = o.items / o.timed.Seconds()
	}
	val := map[string]float64{
		"setup_s":         median(in(o.setups, time.Second)),
		"items_per_s":     rate,
		"p50_ms":          median(opsMs),
		"cpu_us_per_item": float64(o.cpu) / float64(time.Microsecond) / items,
		"max_rss_mb":      float64(o.rssKiB) / 1024,
	}
	out := map[string]metric{}
	for _, d := range endToEnd {
		out[d.name] = metric{Value: val[d.name], Unit: d.unit}
	}
	return out
}

// layerMetrics derives the traced result: every per-layer metric, 0 for
// layers this workload does not cross, plus the tracing overhead. The
// overhead compares the medians of the run's traced and untraced
// operations; their ranges are printed beside it, because an overhead
// smaller than the untraced range is within the noise.
func layerMetrics(o *outcome) (map[string]metric, error) {
	if len(o.ops) == 0 || len(o.traced) == 0 {
		return nil, fmt.Errorf("no tracing overhead: %d traced and %d untraced %s completed", len(o.traced), len(o.ops), o.opName)
	}
	plain, traced := sortedCopy(in(o.ops, time.Millisecond)), sortedCopy(in(o.traced, time.Millisecond))
	o.layer["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	fmt.Printf("# tracing overhead %+.2f%%: median %s %.4f ms traced (%d, range %.4f–%.4f) vs %.4f ms untraced (%d, range %.4f–%.4f)\n",
		o.layer["trace.overhead_pct"], o.opName,
		median(traced), len(traced), traced[0], traced[len(traced)-1],
		median(plain), len(plain), plain[0], plain[len(plain)-1])
	out := map[string]metric{}
	for _, d := range perLayer {
		out[d.name] = metric{Value: o.layer[d.name], Unit: d.unit}
	}
	return out, nil
}

// dumpSpans writes the run's spans as JSON lines and prints self time per
// span name.
func dumpSpans(cfg config, tr *tracer) error {
	spans := tr.finished()
	dir := filepath.Join(cfg.scratch, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s; self time by span:\n", len(spans), path)
	for _, t := range selfByName(spans) {
		fmt.Printf("#   %-24s %8d spans %12.3f ms self\n", t.Name, t.Count, ms(t.Self))
	}
	return nil
}

// commit is the VCS revision the binary was built from, marked -dirty
// for uncommitted changes, or "unknown" when the build saw no VCS (a
// plain checkout).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}
