// Command df3d serves a DF3 scenario over HTTP (see internal/api), in one
// of two modes.
//
// Step mode (default) is the deterministic interactive laboratory: the
// simulation advances only when a client POSTs /v1/step.
//
//	df3d -addr :8080 -buildings 4 -rooms 6 &
//	curl localhost:8080/v1/resources | jq .
//	curl -X POST localhost:8080/v1/rooms/0/0/setpoint -d '{"setpoint_c":23}'
//	curl -X POST localhost:8080/v1/step -d '{"seconds":3600}'
//	curl localhost:8080/metrics          # Prometheus text exposition
//
// Live mode (-live) is the serving plane: a paced driver advances a whole
// federation against the wall clock while POST /v1/edge, /v1/dcc and the
// streaming /v1/ingest inject real requests as external events, behind
// admission control, answering each with its simulated outcome. Every
// arrival is optionally recorded (-arrival-log) for byte-identical
// offline replay.
//
//	df3d -live -speed 60 -cities 2 -shards 2 -arrival-log arrivals.ndjson &
//	curl -X POST localhost:8080/v1/edge -d '{"tenant":7,"work_s":0.05,"deadline_s":1}'
//	df3load -url http://localhost:8080 -rate 200 -duration 10s
//
// On SIGINT/SIGTERM the daemon drains in-flight HTTP requests, stops the
// driver at a slice boundary, flushes the arrival log and writes a final
// metrics snapshot to stdout.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"df3/internal/api"
	"df3/internal/checkpoint"
	"df3/internal/city"
	"df3/internal/metrics"
	"df3/internal/obs"
	"df3/internal/sim"
)

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.buildings, "buildings", 4, "number of buildings per city")
	flag.IntVar(&cfg.rooms, "rooms", 6, "rooms per building")
	flag.IntVar(&cfg.boilers, "boilers", 0, "boiler-plant buildings")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.Float64Var(&cfg.mtbf, "mtbf", 0, "mean days between machine failures (0 disables)")
	flag.BoolVar(&cfg.live, "live", false, "serve in paced real time instead of step mode")
	flag.Float64Var(&cfg.speed, "speed", 1, "simulated seconds per wall second (live mode)")
	flag.Float64Var(&cfg.maxSlice, "max-slice", 1, "max simulated seconds per driver slice (live mode)")
	flag.IntVar(&cfg.cities, "cities", 1, "federation size (live mode)")
	flag.IntVar(&cfg.shards, "shards", 1, "shard workers driving the federation (live mode)")
	flag.StringVar(&cfg.arrivalLog, "arrival-log", "", "record arrivals as NDJSON for offline replay (live mode)")
	flag.DurationVar(&cfg.ingestTimeout, "ingest-timeout", 30*time.Second, "wall bound on a request's wait for its outcomes, counted from when its last line was admitted (live mode)")
	flag.IntVar(&cfg.maxEdge, "max-inflight-edge", 0, "admission cap on in-flight edge requests (live mode, 0 = default)")
	flag.IntVar(&cfg.maxDCC, "max-inflight-dcc", 0, "admission cap on in-flight batch jobs (live mode, 0 = default)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "admission cap on the injection queue depth (live mode, 0 = default)")
	flag.StringVar(&cfg.checkpointDir, "checkpoint-dir", "", "directory for crash-safe checkpoints; enables recovery on restart (live mode, needs -arrival-log)")
	flag.Float64Var(&cfg.checkpointEvery, "checkpoint-every", defaultCheckpointEvery, "simulated seconds between checkpoints (live mode)")
	flag.BoolVar(&cfg.walFsync, "wal-fsync", false, "fsync the arrival log on every record, not just at checkpoints (live mode)")
	flag.BoolVar(&cfg.pprofEnabled, "pprof", false, "expose Go profiling under /debug/pprof/ (serving modes)")
	flag.IntVar(&cfg.flight, "flight", 0, "flight recorder ring capacity per span source; serves GET /v1/traces (live mode, 0 disables)")
	flag.IntVar(&cfg.traceSample, "trace-sample", 1, "keep 1 in N trace spans in the flight recorder (live mode)")
	flag.BoolVar(&cfg.profile, "profile", false, "account per-shard busy/idle wall time and barrier limiters (live mode)")
	flag.StringVar(&cfg.replay, "replay", "", "offline mode: replay a recorded arrival log and print the federation checksum")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "df3d:", err)
		os.Exit(2)
	}

	ccfg := city.DefaultConfig()
	ccfg.Seed = cfg.seed
	ccfg.Buildings = cfg.buildings
	ccfg.RoomsPerBuilding = cfg.rooms
	ccfg.BoilerBuildings = cfg.boilers
	if cfg.mtbf > 0 {
		ccfg.MTBF = sim.Time(cfg.mtbf) * sim.Day
	}

	if cfg.replay != "" {
		runReplay(cfg, ccfg)
		return
	}
	if cfg.live {
		runLive(cfg, ccfg)
		return
	}
	runStep(cfg, ccfg)
}

// checksumLine is the final-state fingerprint format every mode prints;
// the chaos harness and operators diff these lines across runs.
const checksumLine = "# df3d federation checksum: 0x%016x\n"

// buildRecipe serialises the flags that determine the federation build —
// the recipe a checkpoint seals and recovery must match byte for byte.
func buildRecipe(cfg daemonConfig) []byte {
	b, err := json.Marshal(struct {
		Seed      uint64  `json:"seed"`
		Cities    int     `json:"cities"`
		Shards    int     `json:"shards"`
		Buildings int     `json:"buildings"`
		Rooms     int     `json:"rooms"`
		Boilers   int     `json:"boilers"`
		MTBFDays  float64 `json:"mtbf_days"`
	}{cfg.seed, cfg.cities, cfg.shards, cfg.buildings, cfg.rooms, cfg.boilers, cfg.mtbf})
	if err != nil {
		panic(err) // a struct of scalars cannot fail to marshal
	}
	return b
}

// buildFederation builds the live/replay federation from the shared flags.
func buildFederation(cfg daemonConfig, ccfg city.Config) *city.Federation {
	return city.BuildFederation(city.FederationConfig{
		Seed: cfg.seed, Cities: cfg.cities, Shards: cfg.shards, City: ccfg,
	})
}

// runReplay re-executes a recorded arrival log offline and prints the
// resulting federation checksum — the auditable twin of a live session,
// and the reference a chaos-recovered daemon is compared against.
func runReplay(cfg daemonConfig, ccfg city.Config) {
	raw, err := os.ReadFile(cfg.replay)
	if err != nil {
		log.Fatalf("df3d: -replay: %v", err)
	}
	lg := api.ParseArrivalLog(raw)
	if lg.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "df3d: replay: skipped %d torn trailing bytes\n", lg.Skipped)
	}
	f := buildFederation(cfg, ccfg)
	api.ReplayRecords(f, lg.Records)
	sum := f.Summarize()
	fmt.Printf("# df3d replay: %d records, sim time %.0f s, edge served %d, jobs done %d\n",
		len(lg.Records), float64(f.Now()), sum.EdgeServed, sum.JobsDone)
	fmt.Printf(checksumLine, f.Checksum())
}

// withPprof mounts the Go profiling handlers beside the API — explicit
// registrations on a private mux, so nothing leaks through the default
// mux and the surface only exists behind -pprof. Profiling endpoints
// bypass the API's JSON-error hardening deliberately: pprof speaks its
// own content types.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}

// runStep hosts the step-driven single-city laboratory.
func runStep(cfg daemonConfig, ccfg city.Config) {
	c := city.Build(ccfg)
	obs.RegisterRuntime(c.Observability())
	fmt.Printf("df3d: %d buildings × %d rooms (%d boiler plants), %d DF machines, listening on %s\n",
		cfg.buildings, cfg.rooms, cfg.boilers, len(c.Fleet.Machines), cfg.addr)
	hint := cfg.addr
	if strings.HasPrefix(hint, ":") {
		hint = "localhost" + hint
	}
	fmt.Println("advance time with: curl -X POST " + hint + "/v1/step -d '{\"seconds\":3600}'")
	var handler http.Handler = api.NewServer(c)
	if cfg.pprofEnabled {
		handler = withPprof(handler)
	}
	serve(cfg.addr, handler, func() *metrics.Registry { return c.Observability() }, nil, nil)
}

// runLive hosts the paced serving plane. With -checkpoint-dir it is
// crash-safe: an existing arrival log (the WAL) is recovered — torn tail
// truncated, latest valid checkpoint loaded, WAL replayed and verified —
// before the daemon starts serving, and new checkpoints are written at
// slice boundaries while it runs.
func runLive(cfg daemonConfig, ccfg city.Config) {
	f := buildFederation(cfg, ccfg)
	lcfg := api.LiveConfig{
		Speed:         cfg.speed,
		MaxSlice:      sim.Time(cfg.maxSlice),
		IngestTimeout: cfg.ingestTimeout,
		Admission: api.AdmissionConfig{
			MaxInFlightEdge: cfg.maxEdge,
			MaxInFlightDCC:  cfg.maxDCC,
			MaxQueue:        cfg.maxQueue,
		},
		BuildConfig:   buildRecipe(cfg),
		CheckpointDir: cfg.checkpointDir,
		WALFsyncEach:  cfg.walFsync,
	}
	if cfg.checkpointDir != "" {
		lcfg.CheckpointEvery = sim.Time(cfg.checkpointEvery)
		if err := os.MkdirAll(cfg.checkpointDir, 0o755); err != nil {
			log.Fatalf("df3d: -checkpoint-dir: %v", err)
		}
	}
	var logFile *os.File
	if cfg.arrivalLog != "" {
		var err error
		logFile, err = openWAL(cfg, &lcfg)
		if err != nil {
			log.Fatalf("df3d: %v", err)
		}
		lcfg.ArrivalLog = logFile
	}
	if cfg.flight > 0 {
		// The flight's one sampling policy governs every source: the
		// per-city recorder rings and the ingest ring. City rings attach
		// before NewLive (which hooks "ingest" itself, then registers the
		// flight series) so Flight.Register sees every source.
		fl := obs.NewFlight(cfg.flight, obs.Policy{Default: cfg.traceSample})
		f.EnableTracing(cfg.flight)
		f.AttachFlight(fl)
		lcfg.Flight = fl
	}
	if cfg.profile {
		f.Kernel.EnableProfile()
	}
	live := api.NewLive(f, lcfg)
	obs.RegisterRuntime(live.Registry())
	machines := 0
	for _, c := range f.Cities {
		machines += len(c.Fleet.Machines)
	}
	fmt.Printf("df3d: live mode, %d cities × %d buildings × %d rooms on %d shards, %d DF machines, %gx speed, listening on %s\n",
		cfg.cities, cfg.buildings, cfg.rooms, cfg.shards, machines, cfg.speed, cfg.addr)
	if len(lcfg.Resume) > 0 || lcfg.VerifySnapshot != nil {
		fmt.Printf("df3d: recovering %d WAL records (checkpoint covers %d), traffic gated on /readyz\n",
			len(lcfg.Resume), lcfg.VerifyAfter)
	}
	live.Start()

	// A failed recovery must kill the daemon, not leave it listening and
	// permanently unready.
	abort := make(chan error, 1)
	go func() {
		select {
		case <-live.Ready():
		case <-live.Done():
			if err := live.RecoverErr(); err != nil {
				abort <- err
			}
		}
	}()
	var handler http.Handler = api.NewLiveServer(live)
	if cfg.pprofEnabled {
		handler = withPprof(handler)
	}
	serve(cfg.addr, handler, func() *metrics.Registry { return live.Registry() }, abort, func() {
		if err := live.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "df3d: arrival log:", err)
		}
		if logFile != nil {
			if err := logFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "df3d: arrival log:", err)
			}
		}
		fmt.Printf(checksumLine, f.Checksum())
	})
}

// openWAL opens the arrival log. Without -checkpoint-dir it truncates and
// records afresh, the pre-crash-safety behaviour. With it, an existing
// non-empty log is a WAL left by a previous run: the torn tail is
// truncated away, the durable records become the resume log, and the
// newest checkpoint consistent with the durable bytes is loaded for
// fast-forward verification. The file reopens in append mode so the
// recovered session extends the same history.
func openWAL(cfg daemonConfig, lcfg *api.LiveConfig) (*os.File, error) {
	if cfg.checkpointDir == "" {
		f, err := os.Create(cfg.arrivalLog)
		if err != nil {
			return nil, fmt.Errorf("-arrival-log: %w", err)
		}
		return f, nil
	}
	raw, err := os.ReadFile(cfg.arrivalLog)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("-arrival-log: %w", err)
	}
	lg := api.ParseArrivalLog(raw)
	if lg.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "df3d: WAL: truncating %d torn trailing bytes (crash residue)\n", lg.Skipped)
	}
	if len(raw) > 0 {
		if err := os.Truncate(cfg.arrivalLog, lg.Valid); err != nil {
			return nil, fmt.Errorf("WAL truncate: %w", err)
		}
	}
	if len(lg.Records) > 0 {
		lcfg.Resume = lg.Records
		lcfg.ResumeSeq = lg.MaxSeq + 1
		if snap := loadCheckpoint(cfg, lcfg.BuildConfig, lg.Valid); snap != nil {
			lcfg.VerifySnapshot = snap
			lcfg.VerifyAfter = lg.Covered(snap.Meta.WALOffset)
			if snap.Meta.NextSeq > lcfg.ResumeSeq {
				lcfg.ResumeSeq = snap.Meta.NextSeq
			}
		}
	}
	lcfg.ArrivalLogOffset = lg.Valid
	f, err := os.OpenFile(cfg.arrivalLog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("-arrival-log: %w", err)
	}
	return f, nil
}

// loadCheckpoint returns the newest usable checkpoint, or nil when
// recovery replays the WAL with nothing to verify against: none exist,
// or the newest claims to cover more WAL bytes than are durable. The
// protocol fsyncs the WAL before each checkpoint write, so that can only
// mean the WAL file was damaged or swapped — distrust the snapshot,
// trust the log. A recipe mismatch is fatal rather than skippable: the
// WAL and checkpoints describe a different scenario, and replaying them
// into this build would silently fork history.
func loadCheckpoint(cfg daemonConfig, recipe []byte, durable int64) *checkpoint.Snapshot {
	snap, path, skipped, err := checkpoint.Latest(cfg.checkpointDir)
	for _, name := range skipped {
		fmt.Fprintf(os.Stderr, "df3d: checkpoint %s unreadable (truncated or corrupt), skipped\n", name)
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "df3d: checkpoints unusable, replaying full WAL:", err)
		}
		return nil
	}
	if !bytes.Equal(snap.Config, recipe) {
		log.Fatalf("df3d: checkpoint %s was built from a different recipe (%s, current %s); refusing to mix histories",
			path, snap.Config, recipe)
	}
	if snap.Meta.WALOffset > durable {
		fmt.Fprintf(os.Stderr, "df3d: checkpoint %s covers %d WAL bytes but only %d are durable; ignoring it\n",
			path, snap.Meta.WALOffset, durable)
		return nil
	}
	fmt.Printf("df3d: recovering from checkpoint %s (sim time %.0f s, %d WAL bytes covered)\n",
		path, float64(snap.Meta.SimTime), snap.Meta.WALOffset)
	return snap
}

// serve runs the HTTP server until SIGINT/SIGTERM, then shuts down
// gracefully: stop accepting, drain in-flight requests (bounded), run the
// mode-specific drain hook, and flush a final metrics snapshot to stdout.
// A value on abort (a failed recovery) is fatal immediately — a daemon
// that cannot restore its history must not serve an empty one.
func serve(addr string, handler http.Handler, registry func() *metrics.Registry, abort <-chan error, drain func()) {
	srv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		// Listener died on its own (port in use, ...): nothing to drain.
		log.Fatal(err)
	case err := <-abort:
		log.Fatalf("df3d: recovery failed: %v", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "df3d: signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "df3d: shutdown:", err)
	}
	if drain != nil {
		drain()
	}
	fmt.Println("# df3d final metrics snapshot")
	if err := registry().WritePrometheus(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "df3d: snapshot:", err)
	}
}
