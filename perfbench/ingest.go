package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"df3/internal/api"
	"df3/internal/city"
	"df3/internal/metrics"
	"df3/internal/obs"
)

// live-ingest serves df3d's live plane in this process — the CI live
// smoke's shape: 2 cities × 2 shards at 120× speed, an arrival log on
// disk fsynced only at checkpoints, checkpoints every liveCkptEvery
// simulated seconds, and the flight recorder at 4096 spans with keep-all
// sampling — behind api.NewLiveServer on a loopback http.Server. Two
// keep-alive connections run a closed loop of NDJSON batch POSTs to
// /v1/ingest; connection 0 also scrapes /metrics every liveScrapeEvery
// batches. One operation is one batch round trip; one item is one
// answered line.

const (
	liveCities      = 2
	liveShards      = 2
	liveBuildings   = 4
	liveRooms       = 6
	liveSpeed       = 120
	liveConns       = 2
	liveBatch       = 256
	liveScrapeEvery = 5
	liveCkptEvery   = 480 // simulated seconds: 4 wall seconds at 120×
	liveFlight      = 4096
	// livePool distinct batches per connection are drawn in set-up and
	// sent in turn, so no generation runs in the timed phase.
	livePool = 32
	// liveWarmup batches per connection end each set-up.
	liveWarmup = 16
	// liveSetups servers are set up per run; all but the last are torn
	// down again, and setup_s is their median.
	liveSetups = 3
	// liveBlock alternates traced and untraced batches in a traced run.
	liveBlock = time.Second
)

// liveFedConfig is the federation df3d -live -cities 2 -shards 2 builds.
func liveFedConfig(seed uint64) city.FederationConfig {
	c := city.DefaultConfig()
	c.Seed = seed
	c.Buildings = liveBuildings
	c.RoomsPerBuilding = liveRooms
	return city.FederationConfig{Seed: seed, Cities: liveCities, Shards: liveShards, City: c}
}

// liveRecipe is the build recipe df3d seals into checkpoints for the
// same flags.
func liveRecipe(seed uint64) []byte {
	b, err := json.Marshal(struct {
		Seed      uint64  `json:"seed"`
		Cities    int     `json:"cities"`
		Shards    int     `json:"shards"`
		Buildings int     `json:"buildings"`
		Rooms     int     `json:"rooms"`
		Boilers   int     `json:"boilers"`
		MTBFDays  float64 `json:"mtbf_days"`
	}{seed, liveCities, liveShards, liveBuildings, liveRooms, 0, 0})
	if err != nil {
		panic(err) // a struct of scalars cannot fail to marshal
	}
	return b
}

// liveServer is one running live session with its HTTP front and client.
type liveServer struct {
	dir     string
	logPath string
	fed     *city.Federation
	live    *api.Live
	logFile *os.File
	srv     *http.Server
	served  chan error
	url     string
	tp      *http.Transport
	client  *http.Client
}

// startLive builds, starts and serves one live session in dir, the way
// df3d's runLive does.
func startLive(dir string, seed uint64, tr *tracer) (*liveServer, error) {
	s := &liveServer{dir: dir, logPath: filepath.Join(dir, "arrivals.ndjson")}
	ckpt := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		return nil, err
	}
	s.fed = city.BuildFederation(liveFedConfig(seed))
	var err error
	if s.logFile, err = os.Create(s.logPath); err != nil {
		return nil, err
	}
	pol := obs.Policy{Default: 1}
	fl := obs.NewFlight(liveFlight, pol)
	s.fed.EnableTracing(liveFlight)
	s.fed.AttachFlight(fl)
	s.live = api.NewLive(s.fed, api.LiveConfig{
		Speed:           liveSpeed,
		MaxSlice:        1,
		IngestTimeout:   30 * time.Second,
		BuildConfig:     liveRecipe(seed),
		CheckpointDir:   ckpt,
		CheckpointEvery: liveCkptEvery,
		ArrivalLog:      s.logFile,
		Flight:          fl,
		TracePolicy:     pol,
		TraceCapacity:   liveFlight,
	})
	obs.RegisterRuntime(s.live.Registry())
	s.live.Start()
	select {
	case <-s.live.Ready():
	case <-s.live.Done():
		s.logFile.Close()
		return nil, fmt.Errorf("live session stopped before serving: %v", s.live.RecoverErr())
	}
	var h http.Handler = api.NewLiveServer(s.live)
	if tr != nil {
		h = &handlerProbe{next: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.live.Stop()
		s.logFile.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.tp = &http.Transport{MaxConnsPerHost: liveConns, MaxIdleConnsPerHost: liveConns, DisableCompression: true}
	s.client = &http.Client{Transport: s.tp, Timeout: 60 * time.Second}
	return s, nil
}

// stop shuts the HTTP front down, stops the session, closes the arrival
// log and returns the live federation's checksum.
func (s *liveServer) stop() (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	s.tp.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if lerr := s.live.Stop(); lerr != nil && err == nil {
		err = fmt.Errorf("arrival log: %w", lerr)
	}
	if cerr := s.logFile.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return s.fed.Checksum(), err
}

// lineResult is the part of a /v1/ingest result line the benchmark reads.
type lineResult struct {
	Index   int     `json:"index"`
	Error   string  `json:"error"`
	Outcome string  `json:"outcome"`
	SimLatS float64 `json:"sim_latency_s"`
	WallMs  float64 `json:"wall_ms"`
}

// connStats is one client connection's tally.
type connStats struct {
	lines, answered, failed int64
	rtt, rttTraced          []time.Duration
	lineWall, lineSim       []float64 // traced batches only, ms
	err                     error
}

// post sends one batch and checks that every line came back, in order,
// with a verdict. It returns how many lines were answered (served or
// rejected in the simulation); every other line failed. span, when
// non-zero, tags the request for the handler probe, and traced batches
// record each line's wall and simulated latency into st.
func (s *liveServer) post(body []byte, lines int, span int64, st *connStats) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	n, answered := 0, 0
	for sc.Scan() {
		var lr lineResult
		if err := json.Unmarshal(sc.Bytes(), &lr); err != nil {
			return answered, fmt.Errorf("ingest result line %d: %w", n, err)
		}
		if lr.Index != n {
			return answered, fmt.Errorf("ingest result %d carries index %d", n, lr.Index)
		}
		n++
		if lr.Error == "" && (lr.Outcome == "served" || lr.Outcome == "rejected") {
			answered++
		}
		if span != 0 {
			st.lineWall = append(st.lineWall, lr.WallMs)
			st.lineSim = append(st.lineSim, lr.SimLatS/liveSpeed*1e3)
		}
	}
	if err := sc.Err(); err != nil {
		return answered, err
	}
	if n != lines {
		return answered, fmt.Errorf("ingest: %d results for %d lines", n, lines)
	}
	return answered, nil
}

// scrape GETs /metrics.
func (s *liveServer) scrape(span int64) error {
	req, err := http.NewRequest(http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return err
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	return nil
}

// drive runs the closed loop on every connection until stop reports
// true before a batch, and returns each connection's tally. traceOn
// decides per batch whether it is traced (nil: never).
func (s *liveServer) drive(pools [][][]byte, tr *tracer, stop func(batch int) bool, traceOn func() bool) []*connStats {
	stats := make([]*connStats, len(pools))
	var wg sync.WaitGroup
	for c := range pools {
		st := &connStats{}
		stats[c] = st
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; !stop(b); b++ {
				traced := traceOn != nil && traceOn()
				var span int64
				if traced {
					span = tr.begin("ingest.batch", 0)
				}
				t0 := time.Now()
				answered, err := s.post(pools[c][b%len(pools[c])], liveBatch, span, st)
				d := time.Since(t0)
				tr.end(span)
				st.lines += liveBatch
				st.answered += int64(answered)
				st.failed += int64(liveBatch - answered)
				if err != nil {
					st.err = err
					return
				}
				if traced {
					st.rttTraced = append(st.rttTraced, d)
				} else {
					st.rtt = append(st.rtt, d)
				}
				if c == 0 && (b+1)%liveScrapeEvery == 0 {
					var sspan int64
					if traced {
						sspan = tr.begin("metrics.get", 0)
					}
					err := s.scrape(sspan)
					tr.end(sspan)
					if err != nil {
						st.err = err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return stats
}

// liveCounters is a quiescent read of the session's counters.
type liveCounters struct {
	events  uint64
	windows int
	prom    map[string]float64
}

func (s *liveServer) counters() (liveCounters, error) {
	var c liveCounters
	var buf bytes.Buffer
	var err error
	s.live.Sync(func() {
		c.events = s.fed.Summarize().EventsFired
		c.windows = s.fed.Kernel.Stats().Windows
		err = s.live.Registry().WritePrometheus(&buf)
	})
	if err != nil {
		return c, err
	}
	c.prom, err = metrics.ParsePrometheus(&buf)
	return c, err
}

// promSum adds every series of the named metric, whatever its labels.
func promSum(prom map[string]float64, name string) float64 {
	var v float64
	for id, x := range prom {
		if id == name || strings.HasPrefix(id, name+"{") {
			v += x
		}
	}
	return v
}

// replayChecksum replays a recorded arrival log into a fresh build.
func replayChecksum(seed uint64, path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fed := city.BuildFederation(liveFedConfig(seed))
	if err := api.ReplayArrivals(fed, f); err != nil {
		return 0, err
	}
	return fed.Checksum(), nil
}

func runLiveIngest(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{opName: "batch round trips", layer: map[string]float64{}}
	o.notes = append(o.notes, fmt.Sprintf(
		"input: %d cities × %d shards at %d× speed, closed loop of %d connections × %d-line batches, /metrics every %d batches, checkpoint every %d sim s",
		liveCities, liveShards, liveSpeed, liveConns, liveBatch, liveScrapeEvery, liveCkptEvery))
	pools := make([][][]byte, liveConns)
	for c := range pools {
		g := newEdgeGen(cfg.seed, fmt.Sprintf("live-conn-%d", c))
		for i := 0; i < livePool; i++ {
			pools[c] = append(pools[c], g.batchBody(liveBatch))
		}
	}
	tally := func(stats []*connStats) error {
		for _, st := range stats {
			o.attempted += st.lines
			o.failed += st.failed
			if st.err != nil {
				return st.err
			}
		}
		return nil
	}

	var s *liveServer
	for k := 0; k < liveSetups; k++ {
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("live-%d-%d", os.Getpid(), k))
		t0 := time.Now()
		srv, err := startLive(dir, cfg.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := srv.drive(pools, nil, func(b int) bool { return b >= liveWarmup }, nil)
		o.setups = append(o.setups, time.Since(t0))
		if err := tally(warm); err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if k == liveSetups-1 {
			s = srv
			break
		}
		if _, err := srv.stop(); err != nil {
			return nil, fmt.Errorf("set-up teardown: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(s.dir)

	before, err := s.counters()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0 := readUsage()
	t0 := time.Now()
	var traceOn func() bool
	length := cfg.seconds
	if cfg.trace {
		traceOn = func() bool { return (time.Since(t0)/liveBlock)%2 == 1 }
		length = max(length, 2*liveBlock) // an untraced and a traced block
	}
	stats := s.drive(pools, tr, func(int) bool { return time.Since(t0) >= length }, traceOn)
	o.timed = time.Since(t0)
	u1 := readUsage()
	runtime.ReadMemStats(&ms1)
	o.cpu = u1.cpu - u0.cpu
	o.rssKiB = u1.maxRSS
	after, cerr := s.counters()
	derr := tally(stats)

	var lineWall, lineSim []float64
	var answered int64
	for _, st := range stats {
		o.ops = append(o.ops, st.rtt...)
		o.traced = append(o.traced, st.rttTraced...)
		lineWall = append(lineWall, st.lineWall...)
		lineSim = append(lineSim, st.lineSim...)
		answered += st.answered
	}
	o.items = float64(answered)

	liveSum, serr := s.stop()
	if cerr != nil {
		return nil, cerr
	}
	replaySum, err := replayChecksum(cfg.seed, s.logPath)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	o.correct = derr == nil && serr == nil && o.failed == 0 && replaySum == liveSum
	for _, e := range []error{derr, serr} {
		if e != nil {
			o.notes = append(o.notes, "error: "+e.Error())
		}
	}
	o.notes = append(o.notes, fmt.Sprintf(
		"%d lines sent, %d failed; live checksum 0x%016x, replay of the arrival log 0x%016x",
		o.attempted, o.failed, liveSum, replaySum))

	if cfg.trace {
		batches := float64(len(o.ops) + len(o.traced))
		spans := tr.finished()
		handler := durations(spans, spanHandler, time.Millisecond)
		scrapes := durations(spans, spanScrape, time.Millisecond)
		hTail, hp, hok := tail(handler)
		sTail, sp, sok := tail(scrapes)
		o.layer["api.handler_ms_p50"] = median(handler)
		o.layer["api.handler_ms_tail"] = hTail
		o.layer["api.line_wall_ms_p50"] = median(lineWall)
		o.layer["api.line_sim_ms_p50"] = median(lineSim)
		o.layer["sim.slices"] = after.prom["df3_paced_slices_total"] - before.prom["df3_paced_slices_total"]
		o.layer["sim.lag_s"] = after.prom["df3_paced_lag_seconds"]
		o.layer["metrics.scrape_ms_p50"] = median(scrapes)
		o.layer["metrics.scrape_ms_tail"] = sTail
		o.layer["checkpoint.writes"] = after.prom["df3_checkpoint_writes_total"] - before.prom["df3_checkpoint_writes_total"]
		o.layer["api.wal_bytes_per_item"] = (after.prom["df3_wal_written_bytes"] - before.prom["df3_wal_written_bytes"]) / max(o.items, 1)
		o.layer["obs.spans_kept"] = promSum(after.prom, "df3_flight_spans_kept_total") - promSum(before.prom, "df3_flight_spans_kept_total")
		o.layer["obs.spans_evicted"] = promSum(after.prom, "df3_flight_spans_evicted_total") - promSum(before.prom, "df3_flight_spans_evicted_total")
		o.layer["sim.events"] = float64(after.events-before.events) / batches
		o.layer["shard.windows"] = float64(after.windows-before.windows) / batches
		o.layer["runtime.alloc_kb_per_item"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / max(o.items, 1)
		o.layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		o.notes = append(o.notes,
			tailNote("api.handler_ms_tail", hTail, hp, hok, len(handler), "traced ingest handler calls"),
			tailNote("metrics.scrape_ms_tail", sTail, sp, sok, len(scrapes), "traced scrapes"),
			fmt.Sprintf("lag %.3f sim s at the final scrape (positive: the paced driver, not HTTP, is the bottleneck)", after.prom["df3_paced_lag_seconds"]))
	}
	return o, nil
}
