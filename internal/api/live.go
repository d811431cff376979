package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"df3/internal/checkpoint"
	"df3/internal/city"
	"df3/internal/core"
	"df3/internal/metrics"
	"df3/internal/obs"
	"df3/internal/sim"
	"df3/internal/trace"
)

// LiveConfig parameterises a live serving session.
type LiveConfig struct {
	// Speed is simulated seconds per wall second (default 1: real time).
	Speed float64
	// MaxSlice bounds one paced slice in simulated seconds (default 1).
	MaxSlice sim.Time
	// Tick is the driver's wall poll interval (default 2 ms); it bounds
	// ingest latency when the simulation is caught up with the wall.
	Tick time.Duration
	// IngestTimeout is the wall-clock bound a handler waits for its
	// simulated outcome before answering 504 (default 30 s). The request
	// stays in the simulation; only the HTTP wait gives up.
	IngestTimeout time.Duration
	// Horizon is the paced drive's simulated end (default one year).
	Horizon sim.Time
	// Admission bounds the ingest plane (see AdmissionConfig).
	Admission AdmissionConfig
	// ArrivalLog, when set, receives the NDJSON arrival log that makes
	// the session replayable through ReplayArrivals. When it is an
	// *os.File it doubles as the WAL: checkpoints fsync it and recovery
	// replays it.
	ArrivalLog io.Writer
	// ArrivalLogOffset is the byte length ArrivalLog already holds — the
	// durable prefix a recovered daemon reopened in append mode.
	ArrivalLogOffset int64
	// WALFsyncEach fsyncs the arrival log after every record instead of
	// only at checkpoints, shrinking the acknowledged-but-lost crash
	// window to zero at the cost of one fsync per arrival.
	WALFsyncEach bool
	// Clock substitutes a virtual wall clock in tests (default real).
	Clock sim.Clock

	// BuildConfig is this session's build recipe (caller-opaque JSON),
	// sealed into every checkpoint and matched on restore.
	BuildConfig []byte
	// CheckpointEvery, with CheckpointDir, enables periodic crash-safe
	// checkpoints: one every CheckpointEvery simulated seconds, taken at
	// the first slice boundary past due, WAL fsynced first.
	CheckpointEvery sim.Time
	// CheckpointDir is where checkpoint files are atomically written.
	CheckpointDir string

	// Resume, when non-empty, is the recovered WAL: Start replays it
	// through the batch driver — observably in the "recovering" state,
	// before paced serving begins — so the session continues exactly
	// where the crashed one left off.
	Resume []ArrivalRecord
	// ResumeSeq is the injection sequence to resume numbering at
	// (max(checkpoint NextSeq, highest WAL seq + 1)).
	ResumeSeq uint64
	// VerifySnapshot, when set, is the recovered checkpoint: after
	// replaying the first VerifyAfter Resume records (the prefix the
	// snapshot's WALOffset covers) the rebuilt federation must verify
	// against it bit for bit, or recovery fails rather than fork history.
	VerifySnapshot *checkpoint.Snapshot
	// VerifyAfter is the Resume record count covered by VerifySnapshot.
	VerifyAfter int

	// Flight, when set, is the always-on flight recorder: the session
	// opens a span per sampled ingest request into a dedicated recorder
	// hooked into it, and GET /v1/traces streams its rings. The flight
	// plane has its own locks — it works mid-slice and during recovery.
	Flight *obs.Flight
	// TracePolicy samples ingest request spans (zero value: keep all).
	TracePolicy obs.Policy
	// TraceCapacity bounds the ingest span recorder (default 4096).
	TraceCapacity int
}

// Live runs a federation in paced real time behind an ingest plane:
// admission control in front of a thread-safe injection queue, per-request
// outcome callbacks answering HTTP clients, every arrival recorded for
// byte-identical offline replay. One Live owns its federation's Driver.
type Live struct {
	fed    *city.Federation
	cfg    LiveConfig
	queue  *sim.InjectQueue
	paced  *sim.Paced
	adm    *admission
	logw   *arrivalWriter
	clock  sim.Clock
	reg    *metrics.Registry
	done   chan struct{}
	health *healthState

	// nextCkpt is the next checkpoint-due sim time; touched only on the
	// driver goroutine (Start, then OnAdvance under the paced mutex).
	nextCkpt sim.Time

	recoverMu  sync.Mutex
	recoverErr error

	// requests[class][outcome] counts every ingest verdict.
	requests   map[string]map[string]*metrics.SharedCounter
	wallHist   map[string]*metrics.Histogram
	simHist    map[string]*metrics.Histogram
	ckptWrites *metrics.SharedCounter
	ckptErrors *metrics.SharedCounter

	// Flight tracing: sampled wraps a dedicated ingest recorder whose
	// completed spans flow into cfg.Flight. Driven only from the driver
	// goroutine (inject apply + outcome callbacks).
	flight  *obs.Flight
	sampled *obs.Sampled

	// Recovery and checkpoint telemetry, atomics because scrape-time
	// GaugeFuncs read them from handler goroutines while the driver
	// goroutine writes them.
	recoveryStartNs   atomic.Int64  // wall ns recovery began (0: never)
	recoveryDurNs     atomic.Int64  // wall ns of the finished recovery
	recoveryReplayed  atomic.Uint64 // WAL records replayed so far
	lastCkptSimMicros atomic.Int64  // sim µs of the last durable checkpoint
}

// Ingest verdicts (the outcome label of df3_ingest_requests_total).
const (
	outcomeServed   = "served"   // edge request completed
	outcomeRejected = "rejected" // edge request terminally rejected in-sim
	outcomeDone     = "done"     // DCC job completed
	outcomeLost     = "lost"     // DCC job lost past the retry budget
	outcomeShed     = "shed"     // admission control refused it (429)
	outcomeTimeout  = "timeout"  // outcome didn't settle within IngestTimeout (504)
	outcomeClosed   = "closed"   // ingest plane shutting down (503)
)

var edgeOutcomes = []string{outcomeServed, outcomeRejected, outcomeShed, outcomeTimeout, outcomeClosed}
var dccOutcomes = []string{outcomeDone, outcomeLost, outcomeShed, outcomeTimeout, outcomeClosed}

// NewLive wires a live session around a built federation. The federation
// must not be running; NewLive installs the paced driver.
func NewLive(f *city.Federation, cfg LiveConfig) *Live {
	if cfg.IngestTimeout <= 0 {
		cfg.IngestTimeout = 30 * time.Second
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 365 * 24 * sim.Hour
	}
	clock := cfg.Clock
	if clock == nil {
		clock = sim.WallClock{}
	}
	l := &Live{
		fed:    f,
		cfg:    cfg,
		queue:  sim.NewInjectQueue(),
		clock:  clock,
		done:   make(chan struct{}),
		health: newHealthState(StateRecovering),
	}
	l.adm = newAdmission(cfg.Admission, l.queue.Len)
	l.lastCkptSimMicros.Store(-1) // no checkpoint written yet
	l.paced = &sim.Paced{
		Speed:    cfg.Speed,
		MaxSlice: cfg.MaxSlice,
		Tick:     cfg.Tick,
		Queue:    l.queue,
		Clock:    cfg.Clock,
	}
	if cfg.ArrivalLog != nil {
		l.logw = newArrivalWriter(cfg.ArrivalLog, cfg.ArrivalLogOffset)
		l.logw.syncEach = cfg.WALFsyncEach
	}
	if cfg.Flight != nil {
		l.flight = cfg.Flight
		capacity := cfg.TraceCapacity
		if capacity <= 0 {
			capacity = 4096
		}
		rec := trace.NewRecorder(capacity)
		rec.BeginProcess("ingest")
		l.flight.Attach("ingest", rec)
		l.sampled = obs.NewSampled(rec, cfg.TracePolicy)
	}
	checkpointing := cfg.CheckpointEvery > 0 && cfg.CheckpointDir != ""
	if l.logw != nil || checkpointing {
		// OnAdvance runs on the driver goroutine under the paced mutex:
		// the engine is quiescent, so both the advance record and a due
		// checkpoint capture a consistent slice boundary. Never call
		// Sync from here — it would self-deadlock on the same mutex.
		l.paced.OnAdvance = func(reached sim.Time) {
			if l.logw != nil {
				l.logw.write(ArrivalRecord{Kind: "advance", At: float64(reached)})
			}
			if checkpointing && reached >= l.nextCkpt {
				l.nextCkpt = reached + cfg.CheckpointEvery
				l.writeCheckpoint()
			}
		}
	}
	f.Driver = l.paced
	l.registerMetrics()
	return l
}

// registerMetrics adds the df3_ingest_* instruments to the federation's
// registry. Shared counters and histograms are concurrency-safe; the
// func-backed series read only the ingest plane's own thread-safe state.
func (l *Live) registerMetrics() {
	r := l.fed.Observability()
	l.reg = r
	l.requests = map[string]map[string]*metrics.SharedCounter{ClassEdge: {}, ClassDCC: {}}
	for _, o := range edgeOutcomes {
		l.requests[ClassEdge][o] = r.Counter("df3_ingest_requests_total",
			"live ingest requests by class and outcome",
			metrics.Labels{"class": ClassEdge, "outcome": o})
	}
	for _, o := range dccOutcomes {
		l.requests[ClassDCC][o] = r.Counter("df3_ingest_requests_total",
			"live ingest requests by class and outcome",
			metrics.Labels{"class": ClassDCC, "outcome": o})
	}
	l.wallHist = map[string]*metrics.Histogram{}
	l.simHist = map[string]*metrics.Histogram{}
	for _, class := range []string{ClassEdge, ClassDCC} {
		class := class
		l.wallHist[class] = r.Histogram("df3_ingest_wall_seconds",
			"wall-clock latency from ingest to settled outcome",
			metrics.Labels{"class": class}, 0.5, 0.9, 0.99)
		l.simHist[class] = r.Histogram("df3_ingest_sim_seconds",
			"simulated latency of settled requests",
			metrics.Labels{"class": class}, 0.5, 0.9, 0.99)
		r.GaugeFunc("df3_ingest_inflight", "admitted requests awaiting their outcome",
			metrics.Labels{"class": class},
			func() float64 { return float64(l.adm.InFlight(class)) })
	}
	r.GaugeFunc("df3_ingest_queue_depth", "injections accepted but not yet drained",
		nil, func() float64 { return float64(l.queue.Len()) })
	l.ckptWrites = r.Counter("df3_checkpoint_writes_total",
		"checkpoints durably written", nil)
	l.ckptErrors = r.Counter("df3_checkpoint_errors_total",
		"checkpoint attempts that failed (WAL sync or write error)", nil)

	// Paced-driver health. These read the driver's lock-free atomics, not
	// Sync: the registry evaluates read-throughs while the scrape already
	// holds the paced mutex, so a Sync here would self-deadlock.
	r.GaugeFunc("df3_paced_lag_seconds",
		"simulated seconds the wall-clock pacing target is ahead of the sim clock",
		nil, l.paced.LagSeconds)
	r.CounterFunc("df3_paced_slices_total", "paced slices executed",
		nil, func() int64 { return int64(l.paced.Slices()) })
	r.GaugeFunc("df3_paced_last_slice_sim_time_s", "sim time of the last slice boundary",
		nil, func() float64 { return float64(l.paced.LastSliceReached()) })

	// WAL durability: written vs durable offsets and the crash-loss gap.
	if l.logw != nil {
		r.GaugeFunc("df3_wal_written_bytes", "arrival log bytes written (including buffered)",
			nil, func() float64 { w, _ := l.logw.Offsets(); return float64(w) })
		r.GaugeFunc("df3_wal_durable_bytes", "arrival log bytes known fsynced",
			nil, func() float64 { _, d := l.logw.Offsets(); return float64(d) })
		r.GaugeFunc("df3_wal_lag_bytes", "acknowledged-but-not-durable arrival log bytes",
			nil, func() float64 { w, d := l.logw.Offsets(); return float64(w - d) })
	}

	// Recovery progress: phase, records replayed, wall duration and rate.
	r.GaugeFunc("df3_recovery_active", "1 while WAL replay/verify is in progress",
		nil, func() float64 {
			if l.health.get() == StateRecovering {
				return 1
			}
			return 0
		})
	r.CounterFunc("df3_recovery_replayed_records_total", "WAL records replayed during recovery",
		nil, func() int64 { return int64(l.recoveryReplayed.Load()) })
	r.GaugeFunc("df3_recovery_duration_seconds", "wall time of the last (or ongoing) WAL replay and checkpoint verify, not counting the WAL read and parse before it",
		nil, func() float64 { return l.recoveryDuration().Seconds() })
	r.GaugeFunc("df3_recovery_replay_records_per_second", "WAL replay throughput",
		nil, func() float64 {
			d := l.recoveryDuration().Seconds()
			if d <= 0 {
				return 0
			}
			return float64(l.recoveryReplayed.Load()) / d
		})

	// Checkpoint freshness: how much simulated time the newest durable
	// snapshot trails the clock — how far past its last audit point a
	// recovery started now would replay. Recovery replays the whole WAL
	// either way; the checkpoint only marks where it is verified.
	if l.cfg.CheckpointEvery > 0 && l.cfg.CheckpointDir != "" {
		r.GaugeFunc("df3_checkpoint_age_sim_seconds",
			"sim seconds since the last durable checkpoint (0 until one is written)",
			nil, func() float64 {
				last := l.lastCkptSimMicros.Load()
				if last < 0 {
					return 0
				}
				return float64(l.fed.Now()) - float64(last)/1e6
			})
	}

	// Flight-plane sampling verdicts for the ingest recorder.
	if l.sampled != nil {
		r.CounterFunc("df3_trace_ingest_admitted_total", "ingest requests given a trace",
			nil, func() int64 { return int64(l.sampled.Admitted()) })
		r.CounterFunc("df3_trace_ingest_sampled_out_total", "ingest requests sampled out of tracing",
			nil, func() int64 { return int64(l.sampled.SampledOut()) })
		l.flight.Register(r)
	}
}

// recoveryDuration is the wall time of the last recovery — still ticking
// while one is in progress, 0 when none ever ran.
func (l *Live) recoveryDuration() time.Duration {
	if d := l.recoveryDurNs.Load(); d > 0 {
		return time.Duration(d)
	}
	if start := l.recoveryStartNs.Load(); start > 0 {
		return time.Duration(l.clock.Now().UnixNano() - start)
	}
	return 0
}

// Start launches the session on its own goroutine: crash recovery first
// (when configured), then the paced drive. Readiness flips to serving
// only after recovery verifies; a recovery failure stops the session
// without serving (see RecoverErr).
func (l *Live) Start() {
	go func() {
		defer close(l.done)
		defer l.health.set(StateStopped)
		if err := l.recover(); err != nil {
			l.recoverMu.Lock()
			l.recoverErr = err
			l.recoverMu.Unlock()
			return
		}
		if l.cfg.CheckpointEvery > 0 {
			l.nextCkpt = l.fed.Now() + l.cfg.CheckpointEvery
		}
		l.health.set(StateServing)
		l.fed.Run(l.cfg.Horizon)
	}()
}

// recover replays the recovered WAL through the batch driver and verifies
// the recovered checkpoint. Runs on the driver goroutine before paced
// serving begins; the federation temporarily loses its paced driver so
// the replay is pure batch fast-forward.
func (l *Live) recover() error {
	if len(l.cfg.Resume) == 0 && l.cfg.VerifySnapshot == nil {
		return nil
	}
	l.recoveryStartNs.Store(l.clock.Now().UnixNano())
	defer func() {
		l.recoveryDurNs.Store(l.clock.Now().UnixNano() - l.recoveryStartNs.Load())
	}()
	l.fed.Driver = nil
	defer func() { l.fed.Driver = l.paced }()
	n := l.cfg.VerifyAfter
	if n < 0 || n > len(l.cfg.Resume) {
		return fmt.Errorf("recover: VerifyAfter %d outside resume log of %d records", n, len(l.cfg.Resume))
	}
	l.replayCounted(l.cfg.Resume[:n])
	if s := l.cfg.VerifySnapshot; s != nil {
		if err := checkpoint.Verify(l.fed, s, l.cfg.BuildConfig); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	l.replayCounted(l.cfg.Resume[n:])
	l.queue.ResumeAt(l.cfg.ResumeSeq)
	return nil
}

// replayCounted is ReplayRecords with per-record progress accounting, so
// the recovery gauges show replay advancing while /metrics itself is
// still 503ing (df3top reads them through the final exposition or the
// flight plane's unsynced endpoints once serving).
func (l *Live) replayCounted(recs []ArrivalRecord) {
	for _, rec := range recs {
		if rec.Kind == "advance" {
			l.fed.Run(rec.At)
		} else {
			applyArrival(l.fed, rec, nil, nil)
		}
		l.recoveryReplayed.Add(1)
	}
}

// RecoverErr reports why recovery failed, once Done is closed without the
// session ever becoming ready.
func (l *Live) RecoverErr() error {
	l.recoverMu.Lock()
	defer l.recoverMu.Unlock()
	return l.recoverErr
}

// writeCheckpoint captures and durably writes one checkpoint. Called on
// the driver goroutine with the engine quiescent (OnAdvance, or Sync via
// Snapshot). Failures are counted, not fatal: the WAL remains the source
// of truth, recovery replays all of it with or without a checkpoint, and
// an older checkpoint still serves as the replay's audit point.
func (l *Live) writeCheckpoint() {
	snap, err := l.capture()
	if err == nil {
		_, err = checkpoint.WriteAtomic(l.cfg.CheckpointDir, snap)
	}
	if err != nil {
		l.ckptErrors.Inc()
		return
	}
	l.ckptWrites.Inc()
	l.lastCkptSimMicros.Store(int64(float64(l.fed.Now()) * 1e6))
}

// capture fsyncs the WAL and seals the federation state into a snapshot.
// Engine must be quiescent.
func (l *Live) capture() (*checkpoint.Snapshot, error) {
	var off int64
	if l.logw != nil {
		var err error
		if off, err = l.logw.Sync(); err != nil {
			return nil, err
		}
	}
	return checkpoint.Capture(l.fed, checkpoint.Meta{
		NextSeq:   l.queue.NextSeq(),
		WALOffset: off,
		Horizon:   l.cfg.Horizon,
	}, l.cfg.BuildConfig), nil
}

// Snapshot captures the live session quiescent at a slice boundary,
// implementing checkpoint.Snapshotter.
func (l *Live) Snapshot() (*checkpoint.Snapshot, error) {
	var snap *checkpoint.Snapshot
	var err error
	l.paced.Sync(func() { snap, err = l.capture() })
	return snap, err
}

// Stop closes the ingest plane, halts the driver after its current slice,
// waits for it, and flushes the arrival log. Idempotent.
func (l *Live) Stop() error {
	l.queue.Close()
	l.paced.Stop()
	<-l.done
	if l.logw != nil {
		return l.logw.Flush()
	}
	return nil
}

// Done reports driver completion (horizon reached or stopped).
func (l *Live) Done() <-chan struct{} { return l.done }

// Ready is closed when recovery has finished and serving begun.
func (l *Live) Ready() <-chan struct{} { return l.health.Ready() }

// State reports the lifecycle state (recovering, serving, stopped).
func (l *Live) State() string { return l.health.get() }

// Federation returns the driven federation (read it only via Sync while
// the driver runs).
func (l *Live) Federation() *city.Federation { return l.fed }

// Sync runs fn quiescent at a slice boundary (see sim.Paced.Sync).
func (l *Live) Sync(fn func()) { l.paced.Sync(fn) }

// Registry returns the federation registry carrying the ingest series.
func (l *Live) Registry() *metrics.Registry { return l.reg }

// ingestResult is the per-request answer a live client gets back.
type ingestResult struct {
	Outcome   string  `json:"outcome"`
	Escalated bool    `json:"escalated,omitempty"`
	Attempts  int     `json:"attempts,omitempty"`
	Tasks     int     `json:"tasks,omitempty"`
	SimLatS   float64 `json:"sim_latency_s"`
	WallMs    float64 `json:"wall_ms"`
	Seq       uint64  `json:"seq,omitempty"`
}

// statusOf maps an ingest verdict to its HTTP status.
func statusOf(outcome string) int {
	switch outcome {
	case outcomeShed:
		return http.StatusTooManyRequests
	case outcomeClosed:
		return http.StatusServiceUnavailable
	case outcomeTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusOK
	}
}

// ingest admits, injects and awaits one arrival. rec must already be
// validated. Returns the settled (or shed/timed-out) result.
func (l *Live) ingest(rec ArrivalRecord) ingestResult {
	class := ClassEdge
	if rec.Kind == "dcc" {
		class = ClassDCC
	}
	if !l.adm.Admit(class) {
		l.requests[class][outcomeShed].Inc()
		return ingestResult{Outcome: outcomeShed}
	}
	start := l.clock.Now()
	ch := make(chan ingestResult, 1)
	// span is the request's flight-recorder root: begun on the driver
	// goroutine when the arrival applies, ended (possibly from a shard
	// worker — Sampled serialises) when the outcome settles. spanAt is
	// the begin time, so the end lands at spanAt + SimLatency without
	// reading a mid-window clock. Zero span (sampled out, tracing off)
	// makes every call below a no-op.
	var span trace.SpanID
	var spanAt sim.Time
	onEdge := func(o core.EdgeOutcome) {
		// Shard-worker context (or driver goroutine on 1 shard). Release
		// before reporting so a waiting spike slot frees at the simulated
		// settle instant. Everything touched here is concurrency-safe.
		l.adm.Release(ClassEdge)
		verdict := outcomeServed
		if !o.Served {
			verdict = outcomeRejected
		}
		l.requests[ClassEdge][verdict].Inc()
		l.simHist[ClassEdge].Observe(float64(o.SimLatency))
		l.sampled.EndSpanDetail(spanAt+o.SimLatency, span, verdict)
		ch <- ingestResult{
			Outcome:   verdict,
			Escalated: o.Escalated,
			Attempts:  o.Attempts,
			SimLatS:   float64(o.SimLatency),
		}
	}
	onDCC := func(o core.DCCOutcome) {
		l.adm.Release(ClassDCC)
		verdict := outcomeDone
		if !o.Done {
			verdict = outcomeLost
		}
		l.requests[ClassDCC][verdict].Inc()
		l.simHist[ClassDCC].Observe(float64(o.SimLatency))
		l.sampled.EndSpanDetail(spanAt+o.SimLatency, span, verdict)
		ch <- ingestResult{
			Outcome: verdict,
			Tasks:   o.Tasks,
			SimLatS: float64(o.SimLatency),
		}
	}
	seq, ok := l.queue.Inject(func(seq uint64) {
		rec.Seq = seq
		rec.At = float64(l.fed.Now())
		if l.logw != nil {
			l.logw.write(rec)
		}
		spanAt = l.fed.Now()
		span = l.sampled.BeginRoot(spanAt, "ingest:"+rec.Kind, class, rec.Tenant, seq+1)
		applyArrival(l.fed, rec, onEdge, onDCC)
	})
	if !ok {
		l.adm.Release(class)
		l.requests[class][outcomeClosed].Inc()
		return ingestResult{Outcome: outcomeClosed}
	}
	timer := time.NewTimer(l.cfg.IngestTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		wall := l.clock.Now().Sub(start)
		res.WallMs = wall.Seconds() * 1e3
		res.Seq = seq
		l.wallHist[class].Observe(wall.Seconds())
		return res
	case <-timer.C:
		// The request stays in the simulation; its slot frees when the
		// outcome eventually settles. Only the HTTP wait gives up.
		l.requests[class][outcomeTimeout].Inc()
		return ingestResult{Outcome: outcomeTimeout, Seq: seq}
	}
}

// ---------------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------------

// LiveServer is the HTTP face of a Live session: per-request ingest on
// /v1/edge and /v1/dcc, streaming NDJSON ingest on /v1/ingest, and the
// metrics surface, all behind the hardening wrapper.
type LiveServer struct {
	live    *Live
	handler http.Handler
}

// NewLiveServer builds the live mux.
func NewLiveServer(l *Live) *LiveServer {
	s := &LiveServer{live: l}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/edge", s.postEdge)
	mux.HandleFunc("POST /v1/dcc", s.postDCC)
	mux.HandleFunc("POST /v1/ingest", s.postIngest)
	mux.HandleFunc("GET /metrics", s.getPrometheus)
	mux.HandleFunc("GET /v1/metrics", s.getSummary)
	mux.HandleFunc("GET /v1/traces", s.getTraces)
	mux.HandleFunc("GET /healthz", s.getHealth)
	mux.HandleFunc("GET /readyz", s.getReady)
	s.handler = harden(mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *LiveServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// postEdge ingests one edge request and answers with its real outcome.
func (s *LiveServer) postEdge(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Tenant     uint64  `json:"tenant"`
		WorkS      float64 `json:"work_s"`
		DeadlineS  float64 `json:"deadline_s"`
		InputBytes float64 `json:"input_bytes"`
	}
	if !decodeJSON(w, r, &body) {
		return
	}
	rec := ArrivalRecord{
		Kind: "edge", Tenant: body.Tenant, WorkS: body.WorkS,
		DeadlineS: body.DeadlineS, InputBytes: body.InputBytes,
	}
	if err := validateArrival(&rec); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res := s.live.ingest(rec)
	writeJSON(w, statusOf(res.Outcome), res)
}

// postDCC ingests one batch job and answers when its last task finishes.
func (s *LiveServer) postDCC(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Tenant     uint64    `json:"tenant"`
		FrameWorkS []float64 `json:"frame_work_s"`
	}
	if !decodeJSON(w, r, &body) {
		return
	}
	rec := ArrivalRecord{Kind: "dcc", Tenant: body.Tenant, FrameWorkS: body.FrameWorkS}
	if err := validateArrival(&rec); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res := s.live.ingest(rec)
	writeJSON(w, statusOf(res.Outcome), res)
}

// postIngest consumes an NDJSON stream of arrivals (each line an edge or
// dcc record) and streams back one NDJSON result per input line, tagged
// with the line index. Lines ingest concurrently — results come back in
// input order, each carrying its own verdict, so one shed line does not
// fail the stream.
func (s *LiveServer) postIngest(w http.ResponseWriter, r *http.Request) {
	type lineResult struct {
		Index int    `json:"index"`
		Error string `json:"error,omitempty"`
		ingestResult
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var (
		wg      sync.WaitGroup
		results []*lineResult
	)
	for sc.Scan() {
		if isBlank(sc.Bytes()) {
			continue
		}
		idx := len(results)
		lr := &lineResult{Index: idx}
		results = append(results, lr)
		rec, err := decodeArrival(sc.Bytes())
		if err != nil {
			lr.Error = fmt.Sprintf("bad line: %v", err)
			continue
		}
		if err := validateArrival(&rec); err != nil {
			lr.Error = err.Error()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lr.ingestResult = s.live.ingest(rec)
		}()
	}
	scanErr := sc.Err()
	wg.Wait()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, lr := range results {
		_ = enc.Encode(lr)
	}
	if scanErr != nil {
		_ = enc.Encode(map[string]string{"error": fmt.Sprintf("stream: %v", scanErr)})
	}
}

// syncSafe guards the handlers that read simulation state through Sync.
// During recovery the driver goroutine batch-replays the WAL without
// holding the paced mutex, so Sync would race it — those handlers answer
// 503 until serving begins. (Ingest handlers only enqueue and are safe.)
func (s *LiveServer) syncSafe(w http.ResponseWriter) bool {
	if st := s.live.State(); st == StateRecovering {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "recovering", "state": st})
		return false
	}
	return true
}

// getPrometheus scrapes the registry quiescent at a slice boundary. The
// exposition is rendered into memory under the driver mutex and copied to
// the client outside it, so a slow scraper cannot stall the simulation.
func (s *LiveServer) getPrometheus(w http.ResponseWriter, r *http.Request) {
	if !s.syncSafe(w) {
		return
	}
	var buf bytes.Buffer
	var err error
	s.live.Sync(func() { err = s.live.Registry().WritePrometheus(&buf) })
	if err != nil {
		httpError(w, http.StatusInternalServerError, "scrape: %v", err)
		return
	}
	w.Header().Set("Content-Type", contentTypeProm)
	_, _ = w.Write(buf.Bytes())
}

// getTraces streams the flight recorder as NDJSON (one FlightSpan per
// line), or — with ?summary=1 — the online roll-up: per-stage latency
// statistics, the slowest retained root's critical path and per-source
// sampling counters. Deliberately NOT syncSafe-guarded and never touching
// the paced mutex: the flight rings carry their own locks, so recent
// telemetry stays readable mid-slice and during recovery, when /metrics
// is still 503ing.
func (s *LiveServer) getTraces(w http.ResponseWriter, r *http.Request) {
	f := s.live.flight
	if f == nil {
		httpError(w, http.StatusNotFound, "flight recorder not enabled (df3d -flight)")
		return
	}
	if r.URL.Query().Get("summary") != "" {
		writeJSON(w, http.StatusOK, f.Summary())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = f.WriteNDJSON(w)
}

// getSummary answers the federation's headline counters as JSON, plus
// the determinism checksum a replay or recovered run must reproduce and
// the crash-safety ledgers (checkpoint writes/errors and WAL offsets) so
// live mode exposes the same durability facts the exposition does.
func (s *LiveServer) getSummary(w http.ResponseWriter, r *http.Request) {
	if !s.syncSafe(w) {
		return
	}
	l := s.live
	var sum city.Summary
	var now sim.Time
	var sumHash uint64
	l.Sync(func() {
		sum = l.fed.Summarize()
		now = l.fed.Now()
		sumHash = l.fed.Checksum()
	})
	body := map[string]any{
		"sim_time_s":     float64(now),
		"checksum":       fmt.Sprintf("0x%016x", sumHash),
		"cities":         sum.Cities,
		"edge_submitted": sum.EdgeSubmitted,
		"edge_served":    sum.EdgeServed,
		"jobs_submitted": sum.JobsSubmitted,
		"jobs_done":      sum.JobsDone,
		"jobs_lost":      sum.JobsLost,
		"work_done_s":    sum.WorkDone,
		"events_fired":   sum.EventsFired,
		"checkpoint": map[string]any{
			"writes": l.ckptWrites.Value(),
			"errors": l.ckptErrors.Value(),
			"last_sim_time_s": func() float64 {
				if us := l.lastCkptSimMicros.Load(); us >= 0 {
					return float64(us) / 1e6
				}
				return -1
			}(),
		},
		"recovery": map[string]any{
			"replayed_records": l.recoveryReplayed.Load(),
			"duration_s":       l.recoveryDuration().Seconds(),
		},
	}
	if l.logw != nil {
		written, durable := l.logw.Offsets()
		body["wal"] = map[string]any{
			"written_bytes": written,
			"durable_bytes": durable,
			"lag_bytes":     written - durable,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// getHealth is the liveness probe: 200 while the session is recovering or
// serving, 503 after the horizon, Stop, or a failed recovery.
func (s *LiveServer) getHealth(w http.ResponseWriter, r *http.Request) {
	state := s.live.State()
	select {
	case <-s.live.Done():
		state = StateStopped
	default:
	}
	var extra map[string]any
	if state == StateServing {
		var now sim.Time
		s.live.Sync(func() { now = s.live.fed.Now() })
		extra = map[string]any{"sim_time_s": float64(now)}
	}
	writeHealth(w, state, extra)
}

// getReady is the readiness probe: 200 only while serving.
func (s *LiveServer) getReady(w http.ResponseWriter, r *http.Request) {
	writeReady(w, s.live.State())
}

// decodeJSON parses a JSON body, answering 400 on malformed input and 413
// when the hardening body cap truncated it.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", mbe.Limit)
		return false
	}
	httpError(w, http.StatusBadRequest, "bad body: %v", err)
	return false
}
