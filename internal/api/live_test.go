package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"df3/internal/city"
	"df3/internal/sim"
)

// liveFederation builds the small two-city federation every live test
// replays against. Identical configs build identical federations — the
// precondition of the checksum comparisons.
func liveFederation() *city.Federation {
	cfg := city.DefaultConfig()
	cfg.Buildings = 2
	cfg.RoomsPerBuilding = 3
	cfg.DatacenterNodes = 2
	return city.BuildFederation(city.FederationConfig{
		Seed: 7, Cities: 2, Shards: 2, City: cfg,
	})
}

// newLiveRig boots a paced live session over an httptest server. Speed is
// high so simulated outcomes settle in wall microseconds.
func newLiveRig(t *testing.T, cfg LiveConfig) (*Live, *httptest.Server) {
	t.Helper()
	if cfg.Speed == 0 {
		cfg.Speed = 20000
	}
	if cfg.MaxSlice == 0 {
		cfg.MaxSlice = 50
	}
	if cfg.Tick == 0 {
		cfg.Tick = 200 * time.Microsecond
	}
	l := NewLive(liveFederation(), cfg)
	ts := httptest.NewServer(NewLiveServer(l))
	t.Cleanup(ts.Close)
	l.Start()
	t.Cleanup(func() { _ = l.Stop() })
	return l, ts
}

// TestLiveServesEdgeOutcome: a live edge request gets a real per-request
// outcome with simulated and wall latency.
func TestLiveServesEdgeOutcome(t *testing.T) {
	_, ts := newLiveRig(t, LiveConfig{})
	var res ingestResult
	resp := postJSON(t, ts.URL+"/v1/edge",
		map[string]any{"tenant": 3, "work_s": 0.05, "deadline_s": 1}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if res.Outcome != "served" {
		t.Fatalf("outcome %q, want served", res.Outcome)
	}
	if res.SimLatS <= 0 {
		t.Fatalf("sim latency %v, want > 0", res.SimLatS)
	}
}

// TestLiveServesDCCOutcome: a live batch job answers when its last task
// completes, reporting the task count and flow time.
func TestLiveServesDCCOutcome(t *testing.T) {
	_, ts := newLiveRig(t, LiveConfig{})
	var res ingestResult
	resp := postJSON(t, ts.URL+"/v1/dcc",
		map[string]any{"tenant": 1, "frame_work_s": []float64{5, 10, 15}}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if res.Outcome != "done" || res.Tasks != 3 {
		t.Fatalf("outcome %q tasks %d, want done/3", res.Outcome, res.Tasks)
	}
}

// TestLiveRecordReplayChecksum is the serving plane's determinism
// contract: a paced session's arrival log, replayed through the batch
// driver against an identically built federation, reproduces a
// byte-identical Federation.Checksum.
func TestLiveRecordReplayChecksum(t *testing.T) {
	var logBuf bytes.Buffer
	l, ts := newLiveRig(t, LiveConfig{ArrivalLog: &logBuf})

	// Concurrent live traffic: edge requests and batch jobs across
	// tenants, all waited to settlement.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				tenant := g*100 + i
				body, _ := json.Marshal(map[string]any{
					"tenant": tenant, "work_s": 0.02 + float64(i)*0.01, "deadline_s": 2,
				})
				resp, err := http.Post(ts.URL+"/v1/edge", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("edge post: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			body, _ := json.Marshal(map[string]any{
				"tenant": g, "frame_work_s": []float64{3, 6, 9},
			})
			resp, err := http.Post(ts.URL+"/v1/dcc", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("dcc post: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if err := l.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	liveSum := l.Federation().Checksum()
	served := l.Federation().Summarize().EdgeServed
	if served == 0 {
		t.Fatal("live session served nothing; test is vacuous")
	}

	replay := liveFederation()
	if err := ReplayArrivals(replay, bytes.NewReader(logBuf.Bytes())); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := replay.Checksum(); got != liveSum {
		t.Fatalf("replay checksum %#x != live %#x (served live %d, replay %d)",
			got, liveSum, served, replay.Summarize().EdgeServed)
	}
}

// TestLiveAdmissionSheds: past the in-flight limit the ingest plane
// answers 429 and counts the shed — the load-shedding acceptance gate.
func TestLiveAdmissionSheds(t *testing.T) {
	// A glacial driver: outcomes never settle during the test, so every
	// admitted request occupies its slot.
	l, ts := newLiveRig(t, LiveConfig{
		Speed: 1e-9, MaxSlice: 1, Tick: time.Millisecond,
		IngestTimeout: 50 * time.Millisecond,
		Admission:     AdmissionConfig{MaxInFlightEdge: 2},
	})
	var mu sync.Mutex
	codes := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"tenant": i, "work_s": 0.5})
			resp, err := http.Post(ts.URL+"/v1/edge", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			codes[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if codes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429s under spike: %v", codes)
	}
	if got := l.series[lineEdge].requests[verdictShed].Value(); got == 0 {
		t.Fatal("shed counter stayed zero")
	}
}

// TestLiveNDJSONIngest: the streaming endpoint answers one result per
// input line, in input order, and a malformed line fails alone. A line of
// \f is not JSON whitespace, so it is a malformed line, not a blank one.
func TestLiveNDJSONIngest(t *testing.T) {
	_, ts := newLiveRig(t, LiveConfig{})
	lines := ingestBody(t, ts.URL, []string{
		`{"kind":"edge","tenant":1,"work_s":0.02}`,
		`not json`,
		`{"kind":"dcc","tenant":2,"frame_work_s":[2,4]}`,
		`{"kind":"edge","tenant":3,"work_s":-1}`,
		"\f",
	})
	for i, ln := range lines {
		if ln.Index != i {
			t.Fatalf("line %d carries index %d: results out of input order", i, ln.Index)
		}
	}
	if lines[0].Outcome != "served" {
		t.Errorf("line 0 outcome %q, want served", lines[0].Outcome)
	}
	if lines[1].Error == "" || lines[3].Error == "" {
		t.Errorf("malformed lines 1/3 carry no error: %+v", lines)
	}
	if lines[2].Outcome != "done" || lines[2].Tasks != 2 {
		t.Errorf("line 2 = %+v, want done with 2 tasks", lines[2])
	}
	if !strings.HasPrefix(lines[4].Error, "bad line: ") {
		t.Errorf("form feed line 4 = %+v, want a bad line error", lines[4])
	}
}

// TestLiveMetricsExposed: the scrape carries the df3_ingest_* series with
// real counts after traffic.
func TestLiveMetricsExposed(t *testing.T) {
	_, ts := newLiveRig(t, LiveConfig{})
	var res ingestResult
	postJSON(t, ts.URL+"/v1/edge", map[string]any{"tenant": 0, "work_s": 0.02}, &res)
	if res.Outcome != "served" {
		t.Fatalf("outcome %q, want served", res.Outcome)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`df3_ingest_requests_total{class="edge",outcome="served"} 1`,
		"df3_ingest_wall_seconds",
		"df3_ingest_sim_seconds",
		"df3_ingest_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestLiveConcurrentIngestAndScrape is the -race exercise: handler
// goroutines inject and scrape while the driver runs slices.
func TestLiveConcurrentIngestAndScrape(t *testing.T) {
	_, ts := newLiveRig(t, LiveConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g == 0 {
					resp, err := http.Get(ts.URL + "/metrics")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					continue
				}
				body, _ := json.Marshal(map[string]any{"tenant": g*50 + i, "work_s": 0.01})
				resp, err := http.Post(ts.URL+"/v1/edge", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// TestLiveHealth: healthz flips 200 → 503 across Stop.
func TestLiveHealth(t *testing.T) {
	l, ts := newLiveRig(t, LiveConfig{})
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d while running, want 200", resp.StatusCode)
	}
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d after stop, want 503", resp.StatusCode)
	}
}

// TestHardening table-tests the API-wide error surface on both servers:
// JSON 404s, 405s that keep the mux's Allow header, and the body cap.
func TestHardening(t *testing.T) {
	_, batch, _ := newTestServer(t)
	_, live := newLiveRig(t, LiveConfig{})
	_ = batch

	huge := fmt.Sprintf(`{"tenant":1,"work_s":0.1,"pad":%q}`, strings.Repeat("x", maxBodyBytes+1024))
	cases := []struct {
		name, method, url, body string
		wantStatus              int
		wantAllow               string // substring of the Allow header, "" = don't care
	}{
		{"live unknown route", "GET", live.URL + "/nope", "", http.StatusNotFound, ""},
		{"live wrong method", "GET", live.URL + "/v1/edge", "", http.StatusMethodNotAllowed, "POST"},
		{"live body too large", "POST", live.URL + "/v1/edge", huge, http.StatusRequestEntityTooLarge, ""},
		{"live bad json", "POST", live.URL + "/v1/edge", "{", http.StatusBadRequest, ""},
		{"live missing work", "POST", live.URL + "/v1/edge", `{"tenant":1}`, http.StatusBadRequest, ""},
		{"live bad dcc", "POST", live.URL + "/v1/dcc", `{"tenant":1,"frame_work_s":[]}`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if _, ok := body["error"]; !ok {
				t.Fatalf("error body %v carries no error field", body)
			}
			if tc.wantAllow != "" && !strings.Contains(resp.Header.Get("Allow"), tc.wantAllow) {
				t.Fatalf("Allow header %q does not mention %s", resp.Header.Get("Allow"), tc.wantAllow)
			}
		})
	}
}

// TestHardeningBatchServer: the city control plane gets the same error
// surface as the live plane.
func TestHardeningBatchServer(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp := getJSON(t, ts.URL+"/no/such/route", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("404 Content-Type %q, want JSON", ct)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp2.StatusCode)
	}
	if allow := resp2.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("Allow %q does not offer POST", allow)
	}
}

// jumpClock is the wall clock plus an offset a test can jump forward: the
// paced driver creeps along at its speed until the test makes it catch up
// on hours of simulated time at once.
type jumpClock struct{ off atomic.Int64 }

func (c *jumpClock) Now() time.Time        { return sim.WallClock{}.Now().Add(time.Duration(c.off.Load())) }
func (c *jumpClock) Sleep(d time.Duration) { time.Sleep(d) }
func (c *jumpClock) jump(d time.Duration)  { c.off.Add(int64(d)) }

// ingestBody posts an NDJSON body to /v1/ingest and decodes its result
// lines.
func ingestBody(t *testing.T, url string, lines []string) []lineResult {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []lineResult
	dec := json.NewDecoder(resp.Body)
	for {
		var lr lineResult
		if err := dec.Decode(&lr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, lr)
	}
	if len(out) != len(lines) {
		t.Fatalf("%d result lines for %d input lines", len(out), len(lines))
	}
	return out
}

// TestIngestWaiterTimesOutUnsettledLines: one /v1/ingest body whose edge
// lines settle within IngestTimeout while its hour-long batch jobs cannot.
// The one wait per request answers every line in body order: edge
// verdicts for the settled lines, timeout for the rest, counted once
// each. When the driver later catches up, the late outcomes free their
// admission slots and count their verdicts without touching the answered
// request. Seqs, and so WAL records, follow body order.
func TestIngestWaiterTimesOutUnsettledLines(t *testing.T) {
	clk := &jumpClock{}
	var logBuf bytes.Buffer
	l, ts := newLiveRig(t, LiveConfig{
		Speed: 10, MaxSlice: 600, Tick: time.Millisecond, Clock: clk,
		IngestTimeout: 400 * time.Millisecond, ArrivalLog: &logBuf,
	})
	var lines []string
	isDCC := func(i int) bool { return i%3 == 2 }
	for i := 0; i < 12; i++ {
		if isDCC(i) {
			lines = append(lines, fmt.Sprintf(`{"kind":"dcc","tenant":%d,"frame_work_s":[3600]}`, i))
		} else {
			lines = append(lines, fmt.Sprintf(`{"kind":"edge","tenant":%d,"work_s":0.02,"deadline_s":1}`, i))
		}
	}
	res := ingestBody(t, ts.URL, lines)
	var timeouts int64
	for i, lr := range res {
		if lr.Index != i || lr.Error != "" {
			t.Fatalf("line %d = %+v, want index %d and no error", i, lr, i)
		}
		if i > 0 && lr.Seq != res[i-1].Seq+1 {
			t.Fatalf("line %d seq %d after %d: seqs out of body order", i, lr.Seq, res[i-1].Seq)
		}
		switch {
		case isDCC(i) && lr.Outcome != outcomeTimeout:
			t.Fatalf("hour-long job on line %d answered %q, want timeout", i, lr.Outcome)
		case !isDCC(i) && lr.Outcome != outcomeServed && lr.Outcome != outcomeRejected:
			t.Fatalf("edge line %d answered %q, want an edge verdict", i, lr.Outcome)
		case !isDCC(i) && lr.WallMs <= 0:
			t.Fatalf("edge line %d carries wall %v ms, want > 0", i, lr.WallMs)
		}
		if lr.Outcome == outcomeTimeout {
			timeouts++
		}
	}
	timedOut := func() int64 {
		return l.series[lineEdge].requests[verdictTimeout].Value() + l.series[lineDCC].requests[verdictTimeout].Value()
	}
	if got := timedOut(); got != timeouts || timeouts != 4 {
		t.Fatalf("timeout counter %d, %d lines answered timeout, want 4", got, timeouts)
	}
	if n := l.adm.InFlight(lineDCC); n != 4 {
		t.Fatalf("%d batch jobs in flight after the answer, want 4", n)
	}

	// Let the driver catch up on three simulated hours.
	clk.jump(3 * time.Hour / 10)
	giveUp := time.After(20 * time.Second)
	for l.adm.InFlight(lineDCC)+l.adm.InFlight(lineEdge) != 0 {
		select {
		case <-giveUp:
			t.Fatalf("in flight stuck at %d edge, %d dcc", l.adm.InFlight(lineEdge), l.adm.InFlight(lineDCC))
		case <-time.After(5 * time.Millisecond):
		}
	}
	if late := l.series[lineDCC].requests[verdictDone].Value() + l.series[lineDCC].requests[verdictLost].Value(); late != 4 {
		t.Fatalf("%d late batch verdicts counted, want 4", late)
	}
	if got := timedOut(); got != 4 {
		t.Fatalf("timeout counter moved to %d after the late outcomes", got)
	}
	// Wall latency is filed only for lines answered in time.
	if n := l.series[lineDCC].wall.Count(); n != 0 {
		t.Fatalf("%d late batch jobs filed a wall latency into the answered request", n)
	}
	if n := l.series[lineEdge].wall.Count(); n != 8 {
		t.Fatalf("%d edge wall latencies filed, want 8", n)
	}
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, rec := range ParseArrivalLog(logBuf.Bytes()).Records {
		if rec.Kind != "advance" {
			seqs = append(seqs, rec.Seq)
		}
	}
	if len(seqs) != len(res) {
		t.Fatalf("WAL holds %d arrivals, want %d", len(seqs), len(res))
	}
	for i, seq := range seqs {
		if seq != res[i].Seq {
			t.Fatalf("WAL arrival %d carries seq %d, line %d answered seq %d", i, seq, i, res[i].Seq)
		}
	}
}

// TestLiveRetainsNoSamples: a live session's middlewares keep running
// statistics only. n ingested lines are all served, no city retains a
// latency value, and the checksum, which folds the latency mean, equals a
// replay of the arrival log. Federation cities keep no samples in a
// batch replay either (BuildFederation).
func TestLiveRetainsNoSamples(t *testing.T) {
	var logBuf bytes.Buffer
	l, ts := newLiveRig(t, LiveConfig{ArrivalLog: &logBuf})
	const n = 120
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf(`{"kind":"edge","tenant":%d,"work_s":0.01,"deadline_s":2}`, i))
	}
	for i, lr := range ingestBody(t, ts.URL, lines) {
		if lr.Outcome != outcomeServed {
			t.Fatalf("line %d answered %q, want served", i, lr.Outcome)
		}
	}
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	var observed int
	for i, c := range l.Federation().Cities {
		lat := &c.MW.Edge.Latency
		if len(lat.Values()) != 0 || !math.IsNaN(lat.Quantile(0.5)) {
			t.Fatalf("city %d retains %d latencies (median %v), want none", i, len(lat.Values()), lat.Quantile(0.5))
		}
		observed += lat.Count()
	}
	if observed != n {
		t.Fatalf("latency stats counted %d requests, want %d", observed, n)
	}
	replay := liveFederation()
	if err := ReplayArrivals(replay, bytes.NewReader(logBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := replay.Checksum(), l.Federation().Checksum(); got != want {
		t.Fatalf("replay checksum %#x != live %#x", got, want)
	}
	if lat := &replay.Cities[0].MW.Edge.Latency; len(lat.Values()) != 0 || lat.Count() == 0 {
		t.Fatalf("a batch replay retains %d of %d latencies, want none", len(lat.Values()), lat.Count())
	}
}
