package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"df3/internal/trace"
)

// writeSpans records one served request tree and writes it as span JSONL,
// the way df3sim -spans does, with header prepended verbatim.
func writeSpans(t *testing.T, header string) string {
	t.Helper()
	rec := trace.NewRecorder(0)
	rec.BeginProcess("city-0")
	root := rec.BeginSpan(0, "request", 1, 0)
	rec.Instant(0.001, "decide", 0, root, "run")
	c := rec.BeginSpan(0.002, "compute", 0, root)
	rec.EndSpan(0.030, c)
	rec.EndSpanDetail(0.035, root, "served")
	job := rec.BeginSpan(1, "dcc-job", 2, 0)
	rec.EndSpanDetail(61, job, "done")
	var buf bytes.Buffer
	buf.WriteString(header)
	if err := rec.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSummarisesSpansFile: a span JSONL file yields the per-stage table,
// the self-time table, the requested critical paths (slowest root first)
// and a Chrome export that parses as JSON.
func TestSummarisesSpansFile(t *testing.T) {
	path := writeSpans(t, "")
	chrome := filepath.Join(t.TempDir(), "run.json")
	var out bytes.Buffer
	if err := summarise(&out, path, 2, chrome); err != nil {
		t.Fatalf("summarise %s: %v", path, err)
	}
	for _, want := range []string{
		"4 spans, per-stage latency", "exclusive self time",
		`critical path of root #1 (dcc-job "done"`,
		`critical path of root #2 (request "served"`,
		"compute", "chrome trace written to",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	b, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Errorf("chrome export is not valid JSON: %.200s", b)
	}
}

// TestSummariseRejectsBadFiles: a file with a non-span line (the per-worker
// comment headers a metrics gather writes) and a file with no spans are
// errors, not empty summaries.
func TestSummariseRejectsBadFiles(t *testing.T) {
	bad := writeSpans(t, "# worker 0 (127.0.0.1:9461)\n")
	if err := summarise(&bytes.Buffer{}, bad, 1, ""); err == nil {
		t.Error("a span file with a comment header was accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := summarise(&bytes.Buffer{}, empty, 1, "")
	if err == nil || !strings.Contains(err.Error(), "no spans") {
		t.Errorf("empty span file: err %v, want a no-spans error", err)
	}
}
