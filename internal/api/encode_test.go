package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"df3/internal/rng"
)

// floatsFrom reads b as little-endian float64 bit patterns, so a fuzzer
// reaches every float, NaN and the infinities included.
func floatsFrom(b []byte) []float64 {
	var fs []float64
	for ; len(b) >= 8; b = b[8:] {
		fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return fs
}

// FuzzAppendArrival pins appendArrival to json.Marshal: the same bytes
// for any record, arbitrary kinds and floats included, the same error for
// a NaN or infinite float, and a round trip through decodeArrival back to
// the record. Kinds come back with each invalid UTF-8 byte as U+FFFD, and
// omitted fields (zero, negative zero included) as +0.
func FuzzAppendArrival(f *testing.F) {
	le := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add("edge", 1.25, uint64(7), uint64(3), 0.05, 1.0, 16e3, []byte(nil))
	f.Add("dcc", 2.0, uint64(8), uint64(1), 0.0, 0.0, 0.0, le(2, 4.5, 1e-7))
	f.Add("advance", 0.48, uint64(0), uint64(0), 0.0, 0.0, 0.0, []byte(nil))
	f.Add("edge", math.Copysign(0, -1), uint64(math.MaxUint64), uint64(0), 1e21, 5e-324, math.Copysign(0, -1), le(math.Copysign(0, -1), 1e20))
	f.Add("<a&b>\"\\\n\t\x00\x7f\u2028\u2029\xff\xc3", 1e-6, uint64(1), uint64(2), -1.5, 123456789.125, 9.999999999999999e20, le(math.NaN()))
	f.Add("edge", math.Inf(1), uint64(1), uint64(1), 1.0, 1.0, 1.0, []byte(nil))
	// Both sides of each cutoff where encoding/json switches notation.
	f.Add("dcc", 1e-6, uint64(3), uint64(4), math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		le(-1e-6, -math.Nextafter(1e-6, 0), -1e21, -math.Nextafter(1e21, 0), 1e-7, 1e-10, 1.5e-300, 123456789012345680000, math.MaxFloat64))
	f.Fuzz(func(t *testing.T, kind string, at float64, seq, tenant uint64, work, deadline, input float64, frames []byte) {
		rec := ArrivalRecord{
			Kind: kind, At: at, Seq: seq, Tenant: tenant,
			WorkS: work, DeadlineS: deadline, InputBytes: input,
			FrameWorkS: floatsFrom(frames),
		}
		want, wantErr := json.Marshal(rec)
		prefix := []byte("wal:")
		got, err := appendArrival(prefix, &rec)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("appendArrival(%+v) error %v, json.Marshal %v", rec, err, wantErr)
		}
		if err != nil {
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed append changed dst to %q", got)
			}
			return
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendArrival(%+v)\n = %s\nwant %s", rec, got, want)
		}
		back, err := decodeArrival(got[len(prefix):])
		if err != nil {
			t.Fatalf("decodeArrival(%s): %v", want, err)
		}
		exp := rec
		exp.Kind = string([]rune(kind))
		for _, x := range []*float64{&exp.WorkS, &exp.DeadlineS, &exp.InputBytes} {
			if *x == 0 {
				*x = 0
			}
		}
		if got, wantBits := recordBits(back), recordBits(exp); back.Kind != exp.Kind || got != wantBits {
			t.Fatalf("%s decodes to %s, want %s", want, got, wantBits)
		}
	})
}

// FuzzAppendIngestResult pins appendIngestLine to json.Encoder on any
// result line: arbitrary error and outcome strings, every float, and the
// omitempty fields on and off. A NaN or infinite latency fails both, and
// then both write nothing.
func FuzzAppendIngestResult(f *testing.F) {
	f.Add(0, "", "served", false, 0, 0, 0.0125, 3.5, uint64(9))
	f.Add(3, "bad line: invalid character 'o' in literal null (expecting 'u')", "", false, 0, 0, 0.0, 0.0, uint64(0))
	f.Add(7, "unknown arrival kind \"<x>&\u2028\"", "done", true, 2, 5, 1e-7, 1e21, uint64(math.MaxUint64))
	f.Add(-1, "\xff\xfe\x00\x1f\"\\", "timeout", true, -3, -4, math.Copysign(0, -1), 5e-324, uint64(1))
	f.Add(1, "", "served", false, 0, 0, math.NaN(), 1.0, uint64(2))
	f.Fuzz(func(t *testing.T, index int, errMsg, outcome string, escalated bool, attempts, tasks int, simLat, wallMs float64, seq uint64) {
		lr := lineResult{Index: index, Error: errMsg, ingestResult: ingestResult{
			Outcome: outcome, Escalated: escalated, Attempts: attempts, Tasks: tasks,
			SimLatS: simLat, WallMs: wallMs, Seq: seq,
		}}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(&lr)
		prefix := []byte("{\"index\":0}\n")
		got, err := appendIngestLine(prefix, &lr)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("appendIngestLine(%+v) error %v, json.Encoder %v", lr, err, wantErr)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("appendIngestLine(%+v)\n = %q\nwant %q", lr, got[len(prefix):], want.Bytes())
		}
	})
}

// benchArrivals is BenchmarkAppendArrival's record set: live-ingest
// shapes, edge arrivals carrying all six numeric fields with an advance
// about every 150 records, as BenchmarkParseArrivalLog writes them.
func benchArrivals(n int) []ArrivalRecord {
	s := rng.New(1)
	recs := make([]ArrivalRecord, 0, n)
	at, seq := 0.0, uint64(0)
	for len(recs) < n {
		if s.Intn(150) == 0 {
			at += 0.24 + s.Exp(1/0.26)
			recs = append(recs, ArrivalRecord{Kind: "advance", At: at})
			continue
		}
		seq++
		recs = append(recs, ArrivalRecord{
			Kind: "edge", At: at, Seq: seq, Tenant: uint64(s.Intn(1000)),
			WorkS: max(s.Exp(20), 1e-6), DeadlineS: 1, InputBytes: 16e3,
		})
	}
	return recs
}

// BenchmarkAppendArrival encodes one WAL record with appendArrival into a
// reused buffer, as arrivalWriter does, against json.Marshal, the
// reference it must match. Run it with -benchmem.
func BenchmarkAppendArrival(b *testing.B) {
	recs := benchArrivals(1024)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendArrival(buf[:0], &recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
