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
	// lines' simulated outcomes (default 30 s). It counts from when the
	// handler starts waiting, after the body's last line was admitted; a
	// line still unsettled then is answered as timed out (504 on /v1/edge
	// and /v1/dcc). The request stays in the simulation; only the HTTP
	// wait gives up.
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

	// Resume, when non-empty, is the recovered WAL: Start replays it in
	// batch — observably in the "recovering" state, before paced serving
	// begins — so the session continues exactly where the crashed one
	// left off.
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
	// files one completed span per settled ingest line into its "ingest"
	// ring, under Flight's own sampling policy, and GET /v1/traces
	// streams its rings. The flight plane has its own locks — it works
	// mid-slice and during recovery.
	Flight *obs.Flight
	// TracePolicy is unused. Ingest spans are sampled by the policy given
	// to obs.NewFlight, as every other span source is.
	//
	// Deprecated: set the policy on obs.NewFlight.
	TracePolicy obs.Policy
	// TraceCapacity is unused. Ingest spans go straight into Flight's
	// ring, so the capacity given to obs.NewFlight bounds them.
	//
	// Deprecated: set the capacity on obs.NewFlight.
	TraceCapacity int
}

// Live runs a federation in paced real time behind an ingest plane:
// admission control in front of a thread-safe injection queue, per-request
// outcome callbacks answering HTTP clients, every arrival recorded for
// byte-identical offline replay. One Live owns its federation's clock: its
// paced driver is the only thing that runs the federation's kernel.
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

	// series holds each admission class's ingest series.
	series     [numLineClasses]classSeries
	ckptWrites *metrics.SharedCounter
	ckptErrors *metrics.SharedCounter

	// Flight tracing: fileSpan is cfg.Flight's "ingest" sink, called by
	// whichever shard worker settles a line (nil: tracing off).
	flight   *obs.Flight
	fileSpan func(trace.Span)

	// Recovery and checkpoint telemetry, atomics because scrape-time
	// GaugeFuncs read them from handler goroutines while the driver
	// goroutine writes them.
	recoveryStartNs   atomic.Int64  // wall ns recovery began (0: never)
	recoveryDurNs     atomic.Int64  // wall ns of the finished recovery
	recoveryReplayed  atomic.Uint64 // WAL records replayed so far
	lastCkptSimMicros atomic.Int64  // sim µs of the last durable checkpoint
}

// classSeries is one admission class's ingest series.
type classSeries struct {
	// requests[v] counts the class's lines with verdict v; nil for the
	// verdicts the class never has.
	requests  [numVerdicts]*metrics.SharedCounter
	wall, sim *metrics.Histogram
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

// verdict indexes the ingest verdicts; outcomes[v] is its label.
type verdict uint8

const (
	verdictServed verdict = iota
	verdictRejected
	verdictDone
	verdictLost
	verdictShed
	verdictTimeout
	verdictClosed
	numVerdicts
)

var outcomes = [numVerdicts]string{outcomeServed, outcomeRejected, outcomeDone, outcomeLost, outcomeShed, outcomeTimeout, outcomeClosed}

// classVerdicts lists each class's verdicts in registration order.
var classVerdicts = [numLineClasses][]verdict{
	lineEdge: {verdictServed, verdictRejected, verdictShed, verdictTimeout, verdictClosed},
	lineDCC:  {verdictDone, verdictLost, verdictShed, verdictTimeout, verdictClosed},
}

// NewLive wires a live session around a built federation. The federation
// must not be running; NewLive installs the paced driver. Its cities'
// middlewares already keep running statistics only (BuildFederation).
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
		l.fileSpan = l.flight.Hook("ingest")
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
	l.registerMetrics()
	return l
}

// registerMetrics adds the df3_ingest_* instruments to the federation's
// registry. Shared counters and histograms are concurrency-safe; the
// func-backed series read only the ingest plane's own thread-safe state.
func (l *Live) registerMetrics() {
	r := l.fed.Observability()
	l.reg = r
	for c, name := range classNames {
		for _, v := range classVerdicts[c] {
			l.series[c].requests[v] = r.Counter("df3_ingest_requests_total",
				"live ingest requests by class and outcome",
				metrics.Labels{"class": name, "outcome": outcomes[v]})
		}
	}
	for c, name := range classNames {
		class := lineClass(c)
		l.series[c].wall = r.Histogram("df3_ingest_wall_seconds",
			"wall-clock latency from ingest to settled outcome",
			metrics.Labels{"class": name}, 0.5, 0.9, 0.99)
		l.series[c].sim = r.Histogram("df3_ingest_sim_seconds",
			"simulated latency of settled requests",
			metrics.Labels{"class": name}, 0.5, 0.9, 0.99)
		r.GaugeFunc("df3_ingest_inflight", "admitted requests awaiting their outcome",
			metrics.Labels{"class": name},
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

	if l.flight != nil {
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
		l.paced.Drive(l.fed.Kernel, l.cfg.Horizon)
	}()
}

// recover replays the recovered WAL in batch and verifies the recovered
// checkpoint. Runs on the driver goroutine before paced serving begins,
// so the replay is pure batch fast-forward.
func (l *Live) recover() error {
	if len(l.cfg.Resume) == 0 && l.cfg.VerifySnapshot == nil {
		return nil
	}
	l.recoveryStartNs.Store(l.clock.Now().UnixNano())
	defer func() {
		l.recoveryDurNs.Store(l.clock.Now().UnixNano() - l.recoveryStartNs.Load())
	}()
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

// lineResult is one /v1/ingest result line: the input line's index and
// either its parse or validation error or its verdict.
type lineResult struct {
	Index int    `json:"index"`
	Error string `json:"error,omitempty"`
	ingestResult
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

// Root span stages of ingest lines, by class.
const (
	stageIngestEdge = "ingest:" + ClassEdge
	stageIngestDCC  = "ingest:" + ClassDCC
)

// ingestBatch is one request's lines in flight. The handler admits and
// injects each line as it reads it, with no goroutine per line. Each
// line's outcome callback files its result under mu on the shard worker
// that settled it, and the callback that settles the last awaited line
// closes done. The handler waits once per request, on done or one
// IngestTimeout timer (wait).
type ingestBatch struct {
	live     *Live
	lines    []*ingestLine // in body order; the slice itself is handler-owned
	injected int           // lines injected into the queue; handler-owned
	done     chan struct{}

	mu       sync.Mutex
	settled  int  // lines whose outcome was filed
	want     int  // lines the handler waits for; 0 until it starts waiting
	answered bool // the handler has answered; later outcomes file nothing
}

// ingestLine is one line of a request: its record on the way in and its
// result on the way out.
type ingestLine struct {
	b     *ingestBatch
	class lineClass
	start time.Time // admission instant, the zero of WallMs
	// rec is the arrival; apply fills its Seq and At (the arrival's sim
	// time) before the outcome callback can run.
	rec ArrivalRecord
	// seq and injected are written by the handler after Inject returns,
	// so outcome callbacks never read them.
	seq      uint64
	injected bool
	res      lineResult // under b.mu once injected
	settled  bool       // under b.mu
}

func (l *Live) newBatch() *ingestBatch {
	return &ingestBatch{live: l, done: make(chan struct{})}
}

// fail adds a line that did not parse or validate.
func (b *ingestBatch) fail(msg string) {
	b.lines = append(b.lines, &ingestLine{res: lineResult{Index: len(b.lines), Error: msg}})
}

// add admits and injects one validated record, or files its shed or
// closed verdict at once.
func (b *ingestBatch) add(rec ArrivalRecord) {
	l := b.live
	ln := &ingestLine{b: b, class: lineEdge, rec: rec}
	if rec.Kind == "dcc" {
		ln.class = lineDCC
	}
	ln.res.Index = len(b.lines)
	b.lines = append(b.lines, ln)
	if !l.adm.Admit(ln.class) {
		l.series[ln.class].requests[verdictShed].Inc()
		ln.res.Outcome = outcomeShed
		return
	}
	ln.start = l.clock.Now()
	seq, ok := l.queue.Inject(ln.apply)
	if !ok {
		l.adm.Release(ln.class)
		l.series[ln.class].requests[verdictClosed].Inc()
		ln.res.Outcome = outcomeClosed
		return
	}
	ln.seq, ln.injected = seq, true
	b.injected++
}

// wait blocks until every injected line has settled or IngestTimeout has
// passed since the wait began, then answers: each line still unsettled
// is marked and counted as timed out. Its request stays in the
// simulation and its slot frees when the outcome eventually settles;
// only the HTTP wait gives up. Once wait returns no callback writes the
// batch's results.
func (b *ingestBatch) wait() {
	l := b.live
	b.mu.Lock()
	b.want = b.injected
	pending := b.settled < b.want
	b.mu.Unlock()
	if pending {
		timer := time.NewTimer(l.cfg.IngestTimeout)
		select {
		case <-b.done:
		case <-timer.C:
		}
		timer.Stop()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.answered = true
	for _, ln := range b.lines {
		if !ln.injected {
			continue
		}
		ln.res.Seq = ln.seq
		if !ln.settled {
			ln.res.Outcome = outcomeTimeout
			l.series[ln.class].requests[verdictTimeout].Inc()
		}
	}
}

// apply runs on the driver goroutine when the queue drains the line: it
// logs the arrival and submits it.
func (ln *ingestLine) apply(seq uint64) {
	l := ln.b.live
	ln.rec.Seq = seq
	ln.rec.At = float64(l.fed.Now())
	if l.logw != nil {
		l.logw.write(ln.rec)
	}
	if ln.class == lineDCC {
		applyArrival(l.fed, ln.rec, nil, ln.settleDCC)
	} else {
		applyArrival(l.fed, ln.rec, ln.settleEdge, nil)
	}
}

func (ln *ingestLine) settleEdge(o core.EdgeOutcome) {
	v := verdictServed
	if !o.Served {
		v = verdictRejected
	}
	ln.settle(v, ingestResult{
		Escalated: o.Escalated,
		Attempts:  o.Attempts,
		SimLatS:   float64(o.SimLatency),
	}, o.SimLatency)
}

func (ln *ingestLine) settleDCC(o core.DCCOutcome) {
	v := verdictDone
	if !o.Done {
		v = verdictLost
	}
	ln.settle(v, ingestResult{
		Tasks:   o.Tasks,
		SimLatS: float64(o.SimLatency),
	}, o.SimLatency)
}

// settle runs on the shard worker that settled the line (the driver
// goroutine on one shard); everything it touches is concurrency-safe. It
// releases the admission slot first, so a waiting spike slot frees at
// the simulated settle instant, counts the verdict and files the line's
// span, which runs from the arrival to arrival + SimLatency. It files
// the result, with verdict v as its outcome, only if the handler has not
// answered yet.
func (ln *ingestLine) settle(v verdict, res ingestResult, simLat sim.Time) {
	b := ln.b
	l := b.live
	series := &l.series[ln.class]
	res.Outcome = outcomes[v]
	l.adm.Release(ln.class)
	series.requests[v].Inc()
	series.sim.Observe(float64(simLat))
	if l.fileSpan != nil {
		stage := stageIngestEdge
		if ln.class == lineDCC {
			stage = stageIngestDCC
		}
		id := ln.rec.Seq + 1
		l.fileSpan(trace.Span{ID: trace.SpanID(id), Trace: id, Stage: stage,
			Begin: ln.rec.At, End: ln.rec.At + simLat, Detail: res.Outcome})
	}
	wall := l.clock.Now().Sub(ln.start)
	res.WallMs = wall.Seconds() * 1e3
	b.mu.Lock()
	if b.answered {
		b.mu.Unlock()
		return
	}
	ln.res.ingestResult = res
	ln.settled = true
	b.settled++
	last := b.settled == b.want
	b.mu.Unlock()
	series.wall.Observe(wall.Seconds())
	if last {
		close(b.done)
	}
}

// ingestOne admits, injects and awaits one record: a one-line batch.
func (l *Live) ingestOne(rec ArrivalRecord) ingestResult {
	b := l.newBatch()
	b.add(rec)
	b.wait()
	return b.lines[0].res.ingestResult
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
	res := s.live.ingestOne(rec)
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
	res := s.live.ingestOne(rec)
	writeJSON(w, statusOf(res.Outcome), res)
}

// postIngest consumes an NDJSON stream of arrivals (each line an edge or
// dcc record) and answers one NDJSON result per input line, tagged with
// the line index. Each valid line is admitted and injected as it is read,
// so a body's lines take their seqs, and their WAL records, in body
// order. Results come back in input order, each carrying its own
// verdict, so one shed line does not fail the stream. The whole response
// is encoded into one buffer and written at once.
func (s *LiveServer) postIngest(w http.ResponseWriter, r *http.Request) {
	buf := ingestBufs.Get().(*[]byte)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(*buf, 4*1024*1024)
	b := s.live.newBatch()
	for sc.Scan() {
		if isBlank(sc.Bytes()) {
			continue
		}
		rec, err := decodeArrival(sc.Bytes())
		if err != nil {
			b.fail(fmt.Sprintf("bad line: %v", err))
			continue
		}
		if err := validateArrival(&rec); err != nil {
			b.fail(err.Error())
			continue
		}
		b.add(rec)
	}
	scanErr := sc.Err()
	b.wait()
	// Nothing decoded refers to the scan buffer, so the response reuses it.
	out := (*buf)[:0]
	for _, ln := range b.lines {
		// A line that cannot be encoded is left out, as json.Encoder
		// leaves it out; its verdict is still counted.
		out, _ = appendIngestLine(out, &ln.res)
	}
	if scanErr != nil {
		out = append(out, `{"error":`...)
		out = appendJSONString(out, fmt.Sprintf("stream: %v", scanErr))
		out = append(out, "}\n"...)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_, _ = w.Write(out)
	if cap(out) <= maxPooledIngestBuf {
		*buf = out
		ingestBufs.Put(buf)
	}
}

// ingestBufs recycles /v1/ingest buffers across requests: a request scans
// its body through one and then encodes its response into the same one.
// Buffers that grew past maxPooledIngestBuf are dropped, so one huge
// response does not pin its memory.
var ingestBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 64*1024)
	return &b
}}

const maxPooledIngestBuf = 1 << 20

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
