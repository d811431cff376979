package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"df3/internal/api"
	"df3/internal/checkpoint"
	"df3/internal/city"
	"df3/internal/rng"
	"df3/internal/sim"
)

// wal-recovery restarts the live-ingest server shape from files: a
// seed-generated WAL in live-ingest's record shapes and advance cadence,
// ending in a torn line, plus a checkpoint cut partway through it. One
// operation is one recovery, from the files to serving-ready; one item
// is one WAL record.

const (
	walRecords = 100_000
	// walArrivalRate and the advance steps match a live-ingest WAL:
	// arrivals per simulated second at its throughput, and paced slices
	// from one tick's worth of sim time (0.24 s) up to MaxSlice, with a
	// median near 0.45 s.
	walArrivalRate = 340.0
	walMinAdvance  = 0.24
	walMeanExtra   = 0.26
	walMaxAdvance  = 1.0
	// walCut is the share of records the checkpoint covers.
	walCut = 0.6
	// walSetups is how many times a run generates its inputs; setup_s is
	// their median.
	walSetups = 3
)

// walTorn is the crash residue appended after the last whole record.
const walTorn = `{"kind":"edge","at":`

// walFiles are one generated WAL and its checkpoint. The generated
// records themselves are dropped after set-up, as a restarted daemon
// holds only what it reads back from the files.
type walFiles struct {
	dir, walPath, ckptDir string
	cut                   int // records the checkpoint covers
	want                  uint64
}

// genWAL draws n records: bursts of edge arrivals applied at the current
// sim time, each burst closed by an advance record.
func genWAL(seed uint64, n int) []api.ArrivalRecord {
	s := rng.New(seed).ForkNamed("wal-cadence")
	g := newEdgeGen(seed, "wal-arrivals")
	recs := make([]api.ArrivalRecord, 0, n)
	at, step := 0.0, walMinAdvance
	var seq uint64
	for len(recs) < n {
		for k := s.Poisson(walArrivalRate * step); k > 0 && len(recs) < n; k-- {
			tenant, work := g.next()
			recs = append(recs, api.ArrivalRecord{
				Kind: "edge", At: at, Seq: seq, Tenant: tenant,
				WorkS: work, DeadlineS: genDeadline, InputBytes: 16e3,
			})
			seq++
		}
		if len(recs) < n {
			step = min(walMinAdvance+s.Exp(1/walMeanExtra), walMaxAdvance)
			at += step
			recs = append(recs, api.ArrivalRecord{Kind: "advance", At: at})
		}
	}
	return recs
}

// encodeWAL renders records as the arrival writer does, returning the
// byte offset just past each record.
func encodeWAL(recs []api.ArrivalRecord) ([]byte, []int64, error) {
	var buf bytes.Buffer
	ends := make([]int64, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
		ends[i] = int64(buf.Len())
	}
	return buf.Bytes(), ends, nil
}

// cutIndex is the record count the checkpoint covers: through the first
// advance at or after walCut of the log, as a checkpoint is taken right
// after the advance that made it due.
func cutIndex(recs []api.ArrivalRecord) int {
	for i := int(walCut * float64(len(recs))); i < len(recs); i++ {
		if recs[i].Kind == "advance" {
			return i + 1
		}
	}
	return len(recs)
}

// lastAdvance is the sim time of the last advance record.
func lastAdvance(recs []api.ArrivalRecord) float64 {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == "advance" {
			return recs[i].At
		}
	}
	return 0
}

// writeWALFiles generates the inputs in dir: the WAL with its torn tail,
// and a checkpoint captured from a batch replay of the covered prefix.
// The batch replay continues over the rest of the log for the reference
// checksum.
func writeWALFiles(dir string, seed uint64) (*walFiles, error) {
	w := &walFiles{dir: dir, walPath: filepath.Join(dir, "arrivals.ndjson"), ckptDir: filepath.Join(dir, "checkpoints")}
	if err := os.MkdirAll(w.ckptDir, 0o755); err != nil {
		return nil, err
	}
	recs := genWAL(seed, walRecords)
	data, ends, err := encodeWAL(recs)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(w.walPath, append(data, walTorn...), 0o644); err != nil {
		return nil, err
	}
	w.cut = cutIndex(recs)
	recipe := liveRecipe(seed)
	f := city.BuildFederation(liveFedConfig(seed))
	api.ReplayRecords(f, recs[:w.cut])
	var next uint64
	for _, r := range recs[:w.cut] {
		if r.Kind != "advance" {
			next = r.Seq + 1
		}
	}
	snap := checkpoint.Capture(f, checkpoint.Meta{
		NextSeq: next, WALOffset: ends[w.cut-1], Horizon: liveHorizon,
	}, recipe)
	if _, err := checkpoint.WriteAtomic(w.ckptDir, snap); err != nil {
		return nil, err
	}
	api.ReplayRecords(f, recs[w.cut:])
	w.want = f.Checksum()
	return w, nil
}

// liveHorizon is the live plane's default horizon, which a live
// checkpoint records.
const liveHorizon = 365 * 24 * sim.Hour

// recovery is one timed restart's observations.
type recovery struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gc       uint32
	checksum uint64
	records  int
	events   uint64
	windows  int
	speedup  float64
	lg       api.ArrivalLog
	snap     *checkpoint.Snapshot
}

// Span names of a recovery's steps and of the split replay.
const (
	spanParse  = "api.ParseArrivalLog"
	spanLatest = "checkpoint.Latest"
	spanBuild  = "city.BuildFederation"
	spanLive   = "api.Live.recover"
	spanPrefix = "api.ReplayRecords.prefix"
	spanVerify = "checkpoint.Verify"
	spanSuffix = "api.ReplayRecords.suffix"
)

// recoverFromFiles is df3d's restart path: parse the WAL, load the
// newest checkpoint, build, then replay and verify through the live
// session until it is ready to serve.
func recoverFromFiles(w *walFiles, seed uint64, tr *tracer) (recovery, error) {
	var r recovery
	recipe := liveRecipe(seed)
	root := tr.begin("wal.recover", 0)
	defer tr.end(root)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0 := readUsage()
	t0 := time.Now()

	id := tr.begin(spanParse, root)
	raw, err := os.ReadFile(w.walPath)
	if err != nil {
		return r, err
	}
	r.lg = api.ParseArrivalLog(raw)
	tr.end(id)

	id = tr.begin(spanLatest, root)
	snap, path, skipped, err := checkpoint.Latest(w.ckptDir)
	tr.end(id)
	if err != nil {
		return r, err
	}
	if len(skipped) > 0 {
		return r, fmt.Errorf("checkpoints skipped as unreadable: %v", skipped)
	}
	if !bytes.Equal(snap.Config, recipe) {
		return r, fmt.Errorf("checkpoint %s sealed recipe %s", path, snap.Config)
	}
	if snap.Meta.WALOffset > r.lg.Valid {
		return r, fmt.Errorf("checkpoint covers %d WAL bytes, %d durable", snap.Meta.WALOffset, r.lg.Valid)
	}
	r.snap = snap

	id = tr.begin(spanBuild, root)
	f := city.BuildFederation(liveFedConfig(seed))
	tr.end(id)

	id = tr.begin(spanLive, root)
	resumeSeq := r.lg.MaxSeq + 1
	if snap.Meta.NextSeq > resumeSeq {
		resumeSeq = snap.Meta.NextSeq
	}
	live := api.NewLive(f, api.LiveConfig{
		Speed:          liveSpeed,
		MaxSlice:       1,
		Horizon:        lastAdvance(r.lg.Records),
		BuildConfig:    recipe,
		Resume:         r.lg.Records,
		ResumeSeq:      resumeSeq,
		VerifySnapshot: snap,
		VerifyAfter:    r.lg.Covered(snap.Meta.WALOffset),
	})
	live.Start()
	select {
	case <-live.Ready():
	case <-live.Done():
		tr.end(id)
		return r, fmt.Errorf("recovery failed: %v", live.RecoverErr())
	}
	r.wall = time.Since(t0)
	tr.end(id)
	u1 := readUsage()
	runtime.ReadMemStats(&ms1)

	<-live.Done()
	if err := live.Stop(); err != nil {
		return r, err
	}
	r.cpu = u1.cpu - u0.cpu
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	r.gc = ms1.NumGC - ms0.NumGC
	r.checksum = f.Checksum()
	r.records = len(r.lg.Records)
	r.events = f.Summarize().EventsFired
	r.windows = f.Kernel.Stats().Windows
	r.speedup = f.Kernel.Stats().Speedup()
	return r, nil
}

// splitRecovery repeats a recovery's replay on a fresh build as its three
// steps — prefix replay, checkpoint verify, suffix replay — each in its
// own span, and returns the final checksum.
func splitRecovery(r recovery, seed uint64, tr *tracer) (uint64, error) {
	root := tr.begin("wal.split", 0)
	defer tr.end(root)
	f := city.BuildFederation(liveFedConfig(seed))
	n := r.lg.Covered(r.snap.Meta.WALOffset)
	id := tr.begin(spanPrefix, root)
	api.ReplayRecords(f, r.lg.Records[:n])
	tr.end(id)
	id = tr.begin(spanVerify, root)
	err := checkpoint.Verify(f, r.snap, liveRecipe(seed))
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin(spanSuffix, root)
	api.ReplayRecords(f, r.lg.Records[n:])
	tr.end(id)
	return f.Checksum(), nil
}

func runWALRecovery(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{opName: "recoveries", layer: map[string]float64{}}
	var w *walFiles
	for k := 0; k < walSetups; k++ {
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("wal-%d-%d", os.Getpid(), k))
		t0 := time.Now()
		files, err := writeWALFiles(dir, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		if w != nil {
			if err := os.RemoveAll(w.dir); err != nil {
				return nil, err
			}
		}
		w = files
	}
	defer os.RemoveAll(w.dir)
	o.notes = append(o.notes, fmt.Sprintf(
		"input: %d WAL records (live-ingest shapes, %.0f arrivals per sim s, advances every %.2f–%.2f sim s) plus a %d-byte torn line; checkpoint after record %d; %d cities × %d shards",
		walRecords, walArrivalRate, walMinAdvance, walMaxAdvance, len(walTorn), w.cut, liveCities, liveShards))

	var traced []recovery
	matched := 0
	o.correct = true
	start := time.Now()
	for i := 0; i < minOps(cfg) || time.Since(start) < cfg.seconds; i++ {
		isTraced := cfg.trace && i%2 == 1
		var rtr *tracer
		if isTraced {
			rtr = tr
		}
		o.attempted++
		r, err := recoverFromFiles(w, cfg.seed, rtr)
		if err != nil {
			o.failed++
			o.correct = false
			fmt.Printf("# recovery %d failed: %v\n", i, err)
			continue
		}
		if r.checksum == w.want && r.records == walRecords && r.lg.Skipped == len(walTorn) {
			matched++
		} else {
			o.correct = false
			fmt.Printf("# recovery %d: checksum 0x%016x (batch replay 0x%016x), %d records, %d torn bytes\n",
				i, r.checksum, w.want, r.records, r.lg.Skipped)
		}
		if !isTraced {
			o.ops = append(o.ops, r.wall)
			o.items += float64(r.records)
			o.timed += r.wall
			o.cpu += r.cpu
			continue
		}
		o.traced = append(o.traced, r.wall)
		sum, err := splitRecovery(r, cfg.seed, tr)
		// Keep the scalars only: holding every parsed log would grow the
		// live heap, and with it the GC pacing, from one recovery to the
		// next.
		r.lg, r.snap = api.ArrivalLog{}, nil
		traced = append(traced, r)
		if err != nil || sum != w.want {
			o.correct = false
			fmt.Printf("# split recovery %d: checksum 0x%016x, err %v\n", i, sum, err)
		}
	}
	o.rssKiB = readUsage().maxRSS
	o.notes = append(o.notes, fmt.Sprintf("checksum: %d of %d recoveries match the batch replay 0x%016x", matched, o.attempted, w.want))
	if cfg.trace && len(traced) > 0 {
		var alloc, gc []float64
		for _, r := range traced {
			alloc = append(alloc, float64(r.alloc)/1024/float64(r.records))
			gc = append(gc, float64(r.gc))
		}
		spans := tr.finished()
		for name, span := range map[string]string{
			"api.parse_ms":         spanParse,
			"checkpoint.load_ms":   spanLatest,
			"city.build_ms":        spanBuild,
			"api.recover_ms":       spanLive,
			"api.replay_prefix_ms": spanPrefix,
			"checkpoint.verify_ms": spanVerify,
			"api.replay_suffix_ms": spanSuffix,
		} {
			o.layer[name] = median(durations(spans, span, time.Millisecond))
		}
		o.layer["sim.events"] = float64(traced[0].events)
		o.layer["shard.windows"] = float64(traced[0].windows)
		o.layer["shard.speedup"] = traced[0].speedup
		o.layer["runtime.alloc_kb_per_item"] = median(alloc)
		o.layer["runtime.gc_cycles"] = median(gc)
	}
	return o, nil
}
