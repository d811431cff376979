package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"df3/internal/trace"
)

// TestEventsModeReadsCSVWhateverTheName: df3sim -trace writes CSV events
// whatever the file is called, so a trace named run.jsonl must summarise
// like any other.
func TestEventsModeReadsCSVWhateverTheName(t *testing.T) {
	var rec trace.Recorder
	rec.Add(1, "edge_latency", 1, 0.2)
	rec.Add(2, "edge_latency", 2, 0.4)
	rec.Add(3, "dcc_done", 3, 300)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := eventsMode(&out, path); err != nil {
		t.Fatalf("events mode on a CSV trace named %s: %v", filepath.Base(path), err)
	}
	for _, want := range []string{"3 events", "edge_latency", "dcc_done"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}
