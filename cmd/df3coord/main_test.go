package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"df3/internal/trace"
)

// workerChunk is what a df3node -trace worker returns: the merge, in city
// order, of one recorder per federation city, of which only the owned
// cities record spans. Every worker numbers its spans from 1.
func workerChunk(t *testing.T, cities int, owned ...int) []byte {
	t.Helper()
	merged := trace.NewRecorder(0)
	for ci := 0; ci < cities; ci++ {
		rec := trace.NewRecorder(0)
		rec.BeginProcess(fmt.Sprintf("city-%d", ci))
		for req := uint64(1); slices.Contains(owned, ci) && req <= 3; req++ {
			root := rec.BeginSpan(float64(req), "request", req, 0)
			rec.Instant(float64(req), "decide", 0, root, "run")
			c := rec.BeginSpan(float64(req), "compute", 0, root)
			rec.EndSpan(float64(req)+0.5, c)
			rec.EndSpanDetail(float64(req)+0.6, root, "served")
		}
		merged.Merge(rec)
	}
	var buf bytes.Buffer
	if err := merged.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGatherSpansShiftsWorkerIDs: two workers' chunks with overlapping span
// ids gather into one file df3trace reads, with every id unique and every
// parent link still naming a span of the same worker's tree.
func TestGatherSpansShiftsWorkerIDs(t *testing.T) {
	chunks := [][]byte{workerChunk(t, 3, 0, 1), workerChunk(t, 3, 2)}
	var src [][]trace.Span
	for _, c := range chunks {
		spans, err := trace.ReadSpansJSONL(bytes.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		src = append(src, spans)
	}
	if src[0][0].ID != src[1][0].ID {
		t.Fatalf("fixture ids do not overlap: %d vs %d", src[0][0].ID, src[1][0].ID)
	}

	path := filepath.Join(t.TempDir(), "coord_trace.jsonl")
	if err := gatherSpans(path, len(chunks), func(p int) ([]byte, error) { return chunks[p], nil }); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trace.ReadSpansJSONL(f)
	if err != nil {
		t.Fatalf("gathered file is not span JSONL: %v", err)
	}
	if want := len(src[0]) + len(src[1]); len(got) != want {
		t.Fatalf("gathered %d spans, want %d", len(got), want)
	}

	byID := map[trace.SpanID]trace.Span{}
	for _, sp := range got {
		if _, dup := byID[sp.ID]; dup {
			t.Fatalf("span id %d gathered twice", sp.ID)
		}
		byID[sp.ID] = sp
	}
	i := 0
	for w, spans := range src {
		for _, want := range spans {
			sp := got[i]
			i++
			if sp.Stage != want.Stage || sp.Trace != want.Trace || sp.Proc != want.Proc ||
				sp.Begin != want.Begin || sp.End != want.End || sp.Detail != want.Detail {
				t.Fatalf("worker %d span %+v gathered as %+v", w, want, sp)
			}
			if (sp.Parent == 0) != (want.Parent == 0) {
				t.Fatalf("worker %d span %d: parent %d gathered as %d", w, want.ID, want.Parent, sp.Parent)
			}
			if sp.Parent == 0 {
				continue
			}
			parent, ok := byID[sp.Parent]
			if !ok || parent.Stage != "request" || parent.Trace != sp.Trace || parent.Proc != sp.Proc {
				t.Fatalf("worker %d span %+v: parent link lost (parent %+v)", w, sp, parent)
			}
		}
	}
	if roots := trace.Roots(got); len(roots) != 9 {
		t.Errorf("%d request roots, want 9 (3 per city)", len(roots))
	}
}
