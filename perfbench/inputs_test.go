package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"df3/internal/api"
)

func TestCityHoursFixedByInput(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		// 8 cities × (12 h of traffic + 6 h drain).
		if got := cityHours(fedSpec(seed)); got != 144 {
			t.Errorf("seed %d: %v city-hours per run, want 144", seed, got)
		}
	}
}

func TestBatchLinesValidate(t *testing.T) {
	g := newEdgeGen(3, "test")
	body := g.batchBody(liveBatch)
	sc := bufio.NewScanner(bytes.NewReader(body))
	n := 0
	for sc.Scan() {
		var rec api.ArrivalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if rec.Kind != "edge" || rec.WorkS <= 0 || rec.DeadlineS != genDeadline {
			t.Fatalf("line %d does not validate: %s", n, sc.Bytes())
		}
		n++
	}
	if n != liveBatch {
		t.Fatalf("batch has %d lines, want %d", n, liveBatch)
	}
	if !bytes.Equal(body, newEdgeGen(3, "test").batchBody(liveBatch)) {
		t.Fatal("same seed drew a different batch")
	}
	if bytes.Equal(body, newEdgeGen(4, "test").batchBody(liveBatch)) {
		t.Fatal("another seed drew the same batch")
	}
}

func TestTinyWorkNeverFormatsAsZero(t *testing.T) {
	line := appendEdgeLine(nil, 7, minWork)
	var rec api.ArrivalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.WorkS != minWork {
		t.Fatalf("work_s read back as %v from %s", rec.WorkS, line)
	}
}

func TestWALRecordsFixedByInput(t *testing.T) {
	const n = 5000
	recs := genWAL(5, n)
	if len(recs) != n {
		t.Fatalf("generated %d records, want %d", len(recs), n)
	}
	data, ends, err := encodeWAL(recs)
	if err != nil {
		t.Fatal(err)
	}
	lg := api.ParseArrivalLog(append(data, walTorn...))
	if len(lg.Records) != n || lg.Skipped != len(walTorn) || lg.Valid != ends[n-1] {
		t.Fatalf("parse: %d records, %d skipped, valid %d; want %d, %d, %d",
			len(lg.Records), lg.Skipped, lg.Valid, n, len(walTorn), ends[n-1])
	}
	if !reflect.DeepEqual(lg.Records, recs) {
		t.Fatal("parsed records differ from the generated ones")
	}
	cut := cutIndex(recs)
	if recs[cut-1].Kind != "advance" || lg.Covered(ends[cut-1]) != cut {
		t.Fatalf("checkpoint cut %d does not end on an advance record", cut)
	}
	if !reflect.DeepEqual(recs, genWAL(5, n)) {
		t.Fatal("same seed generated a different WAL")
	}
}
