package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"df3/internal/metrics"
	"df3/internal/obs"
	"df3/internal/trace"
)

// readBody drains and closes a response body, returning it as a string.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLiveTracesNDJSON: with a flight recorder configured, /v1/traces
// streams completed ingest spans as NDJSON and ?summary=1 answers the
// online rollup — all without pausing the paced driver.
func TestLiveTracesNDJSON(t *testing.T) {
	_, ts := newLiveRig(t, LiveConfig{Flight: obs.NewFlight(1024, obs.Policy{})})

	var res ingestResult
	postJSON(t, ts.URL+"/v1/edge",
		map[string]any{"tenant": 3, "work_s": 0.05, "deadline_s": 1}, &res)
	if res.Outcome != "served" {
		t.Fatalf("edge outcome %q, want served", res.Outcome)
	}
	postJSON(t, ts.URL+"/v1/dcc",
		map[string]any{"tenant": 1, "frame_work_s": []float64{5, 10}}, &res)
	if res.Outcome != "done" {
		t.Fatalf("dcc outcome %q, want done", res.Outcome)
	}

	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	lines := 0
	sawIngest := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var span obs.FlightSpan
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("line %d: %v: %s", lines+1, err, sc.Text())
		}
		if span.Src == "" {
			t.Fatalf("line %d: empty src: %s", lines+1, sc.Text())
		}
		sawIngest = sawIngest || span.Src == "ingest"
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no spans streamed after served traffic")
	}
	if !sawIngest {
		t.Fatal("no span from the ingest recorder in the stream")
	}

	var sum obs.FlightSummary
	resp2 := getJSON(t, ts.URL+"/v1/traces?summary=1", &sum)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("summary status %d, want 200", resp2.StatusCode)
	}
	if sum.Spans == 0 {
		t.Fatal("summary reports zero spans")
	}
	if len(sum.Sinks) == 0 {
		t.Fatal("summary reports no sinks")
	}
	if len(sum.Stages) == 0 {
		t.Fatal("summary reports no stage latencies")
	}
}

// TestIngestSpansSampledOnce: the Flight's policy makes the one sampling
// decision for ingest spans, so the ingest ring's counters see every
// settled line (kept plus sampled out equals the lines sent), and each
// kept span is its line's own: trace id seq+1 as the policy admits it,
// running from the arrival to arrival + sim latency, with the outcome as
// its detail.
func TestIngestSpansSampledOnce(t *testing.T) {
	pol := obs.Policy{Default: 4}
	var logBuf bytes.Buffer
	// TracePolicy is set as callers that predate its deprecation set it:
	// to the Flight's own policy.
	l, ts := newLiveRig(t, LiveConfig{
		Flight: obs.NewFlight(1024, pol), TracePolicy: pol, ArrivalLog: &logBuf,
	})

	const n = 200
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"kind":"edge","tenant":%d,"work_s":0.02,"deadline_s":1}`, i)
	}
	lineOf := map[uint64]lineResult{} // by trace id, seq+1
	admitted := 0
	for _, lr := range ingestBody(t, ts.URL, lines) {
		if lr.Outcome != outcomeServed && lr.Outcome != outcomeRejected {
			t.Fatalf("line %d answered %q, want an edge verdict", lr.Index, lr.Outcome)
		}
		lineOf[lr.Seq+1] = lr
		if pol.Keep(stageIngestEdge, lr.Seq+1) {
			admitted++
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := metrics.ParsePrometheus(strings.NewReader(readBody(t, resp)))
	if err != nil {
		t.Fatal(err)
	}
	kept := prom[`df3_flight_spans_kept_total{src="ingest"}`]
	out := prom[`df3_flight_spans_sampled_out_total{src="ingest"}`]
	if kept+out != n || out == 0 || kept == 0 {
		t.Fatalf("ingest ring kept %v and sampled out %v of %d lines", kept, out, n)
	}

	resp, err = http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.FlightSpan
	sc := bufio.NewScanner(strings.NewReader(readBody(t, resp)))
	for sc.Scan() {
		var sp obs.FlightSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%v: %s", err, sc.Text())
		}
		if sp.Src == "ingest" {
			spans = append(spans, sp)
		}
	}

	// The WAL holds each line's arrival time; stop the driver before
	// reading it.
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	at := map[uint64]float64{} // by trace id
	for _, rec := range ParseArrivalLog(logBuf.Bytes()).Records {
		if rec.Kind == "edge" {
			at[rec.Seq+1] = rec.At
		}
	}
	if len(spans) != int(kept) || admitted != len(spans) {
		t.Fatalf("%d ingest spans streamed, ring kept %v, policy admits %d lines", len(spans), kept, admitted)
	}
	ids := map[trace.SpanID]bool{}
	for _, sp := range spans {
		lr, ok := lineOf[sp.Trace]
		begin, logged := at[sp.Trace]
		switch {
		case !ok || sp.ID != trace.SpanID(sp.Trace) || ids[sp.ID]:
			t.Fatalf("span %+v: want a unique id equal to a line's trace id seq+1", sp)
		case !pol.Keep(sp.Stage, sp.Trace) || sp.Stage != stageIngestEdge:
			t.Fatalf("span %+v: want stage %q, kept by the policy", sp, stageIngestEdge)
		case !logged || sp.Begin != begin || sp.End != begin+lr.SimLatS || sp.Detail != lr.Outcome:
			t.Fatalf("span %+v, want [%v, %v] with detail %q", sp, begin, begin+lr.SimLatS, lr.Outcome)
		}
		ids[sp.ID] = true
	}
}

// TestLiveTracesDisabled: without -flight the endpoint is an honest 404,
// not an empty stream.
func TestLiveTracesDisabled(t *testing.T) {
	_, ts := newLiveRig(t, LiveConfig{})
	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(body, "flight recorder not enabled") {
		t.Fatalf("body %q should explain how to enable the recorder", body)
	}
}

// TestMetricsContentTypeConsistency: the step and live servers advertise
// the same Content-Type per endpoint — Prometheus exposition on /metrics,
// JSON on /v1/metrics — so scrapers need not care which mode answered.
func TestMetricsContentTypeConsistency(t *testing.T) {
	_, stepTS, _ := newTestServer(t)
	_, liveTS := newLiveRig(t, LiveConfig{})

	for _, tc := range []struct {
		name, url, want string
	}{
		{"step /metrics", stepTS.URL + "/metrics", contentTypeProm},
		{"live /metrics", liveTS.URL + "/metrics", contentTypeProm},
		{"step /v1/metrics", stepTS.URL + "/v1/metrics", contentTypeJSON},
		{"live /v1/metrics", liveTS.URL + "/v1/metrics", contentTypeJSON},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", tc.name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.want {
			t.Errorf("%s: Content-Type %q, want %q", tc.name, ct, tc.want)
		}
	}
}

// TestLiveSummaryLedgers: /v1/metrics carries the crash-safety ledgers —
// checkpoint writes/errors with the -1 "never" sentinel, recovery
// counters, and WAL offsets once an arrival log is configured.
func TestLiveSummaryLedgers(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts := newLiveRig(t, LiveConfig{ArrivalLog: &logBuf})

	var res ingestResult
	postJSON(t, ts.URL+"/v1/edge",
		map[string]any{"tenant": 2, "work_s": 0.05, "deadline_s": 1}, &res)
	if res.Outcome != "served" {
		t.Fatalf("edge outcome %q, want served", res.Outcome)
	}

	var body struct {
		Checkpoint struct {
			Writes       float64 `json:"writes"`
			Errors       float64 `json:"errors"`
			LastSimTimeS float64 `json:"last_sim_time_s"`
		} `json:"checkpoint"`
		Recovery struct {
			ReplayedRecords float64 `json:"replayed_records"`
			DurationS       float64 `json:"duration_s"`
		} `json:"recovery"`
		WAL *struct {
			WrittenBytes float64 `json:"written_bytes"`
			DurableBytes float64 `json:"durable_bytes"`
			LagBytes     float64 `json:"lag_bytes"`
		} `json:"wal"`
	}
	resp := getJSON(t, ts.URL+"/v1/metrics", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if body.Checkpoint.Writes != 0 || body.Checkpoint.Errors != 0 {
		t.Fatalf("checkpoint ledger %+v, want zero writes/errors without -checkpoint", body.Checkpoint)
	}
	if body.Checkpoint.LastSimTimeS != -1 {
		t.Fatalf("last_sim_time_s %v, want the -1 never-checkpointed sentinel", body.Checkpoint.LastSimTimeS)
	}
	if body.Recovery.ReplayedRecords != 0 {
		t.Fatalf("replayed_records %v on a fresh boot, want 0", body.Recovery.ReplayedRecords)
	}
	if body.WAL == nil {
		t.Fatal("wal ledger absent despite a configured arrival log")
	}
	if body.WAL.WrittenBytes <= 0 {
		t.Fatalf("wal written_bytes %v after served traffic, want > 0", body.WAL.WrittenBytes)
	}
	if got := body.WAL.WrittenBytes - body.WAL.DurableBytes; body.WAL.LagBytes != got {
		t.Fatalf("wal lag_bytes %v, want written-durable = %v", body.WAL.LagBytes, got)
	}
}

// TestLiveSummaryOmitsWALWithoutLog: no arrival log, no wal object —
// absence, not zeros, marks the feature off.
func TestLiveSummaryOmitsWALWithoutLog(t *testing.T) {
	_, ts := newLiveRig(t, LiveConfig{})
	var body map[string]any
	getJSON(t, ts.URL+"/v1/metrics", &body)
	if _, ok := body["wal"]; ok {
		t.Fatal("wal ledger present without an arrival log")
	}
}
