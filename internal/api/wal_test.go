package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"df3/internal/rng"
)

// walLines serialises records exactly as arrivalWriter does.
func walLines(t *testing.T, recs ...ArrivalRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestParseArrivalLogClean: a well-formed log parses whole — no skipped
// bytes, records in order, MaxSeq found.
func TestParseArrivalLogClean(t *testing.T) {
	data := walLines(t,
		ArrivalRecord{Kind: "advance", At: 1},
		ArrivalRecord{Kind: "edge", At: 1, Seq: 3, Tenant: 2, WorkS: 0.5},
		ArrivalRecord{Kind: "dcc", At: 2, Seq: 7, FrameWorkS: []float64{1, 2}},
		ArrivalRecord{Kind: "advance", At: 3},
	)
	lg := ParseArrivalLog(data)
	if lg.Skipped != 0 || lg.Valid != int64(len(data)) {
		t.Fatalf("clean log: valid %d skipped %d, want %d/0", lg.Valid, lg.Skipped, len(data))
	}
	if len(lg.Records) != 4 || lg.MaxSeq != 7 {
		t.Fatalf("records %d maxseq %d, want 4/7", len(lg.Records), lg.MaxSeq)
	}
	if lg.Ends[3] != int64(len(data)) {
		t.Fatalf("last end %d, want %d", lg.Ends[3], len(data))
	}
}

// TestParseArrivalLogTornTail: every way a crash can mangle the tail —
// a line cut mid-record, trailing garbage, a corrupt interior line — is
// truncated to the last complete record, and the reported Valid prefix
// reparses cleanly.
func TestParseArrivalLogTornTail(t *testing.T) {
	good := walLines(t,
		ArrivalRecord{Kind: "advance", At: 1},
		ArrivalRecord{Kind: "edge", At: 1, Seq: 1, Tenant: 2, WorkS: 0.5},
	)
	cases := []struct {
		name string
		tail []byte
	}{
		{"cut mid-record", []byte(`{"kind":"edge","at":2,"se`)},
		{"unterminated valid json", []byte(`{"kind":"advance","at":2}`)}, // no newline: not proven durable
		{"binary garbage", []byte{0x00, 0xff, 0x03, '\n'}},
		{"corrupt line then more", []byte("not json\n" + `{"kind":"advance","at":9}` + "\n")},
		{"invalid arrival", []byte(`{"kind":"edge","at":2,"work_s":-1}` + "\n")},
		// Not JSON whitespace, so not a blank line: the parse stops there.
		{"vertical tab line", []byte("\v\n" + `{"kind":"advance","at":9}` + "\n")},
		{"form feed line", []byte("\f\n" + `{"kind":"advance","at":9}` + "\n")},
		{"no-break space line", []byte("\u00a0\n" + `{"kind":"advance","at":9}` + "\n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append(append([]byte(nil), good...), tc.tail...)
			lg := ParseArrivalLog(data)
			if lg.Valid != int64(len(good)) {
				t.Fatalf("valid %d, want %d", lg.Valid, len(good))
			}
			if lg.Skipped != len(tc.tail) {
				t.Fatalf("skipped %d, want %d", lg.Skipped, len(tc.tail))
			}
			if len(lg.Records) != 2 || lg.MaxSeq != 1 {
				t.Fatalf("records %d maxseq %d, want 2/1", len(lg.Records), lg.MaxSeq)
			}
		})
	}
}

// TestParseArrivalLogCovered maps checkpoint WAL offsets to record counts.
func TestParseArrivalLogCovered(t *testing.T) {
	data := walLines(t,
		ArrivalRecord{Kind: "advance", At: 1},
		ArrivalRecord{Kind: "advance", At: 2},
		ArrivalRecord{Kind: "advance", At: 3},
	)
	lg := ParseArrivalLog(data)
	if got := lg.Covered(0); got != 0 {
		t.Fatalf("covered(0) = %d", got)
	}
	if got := lg.Covered(lg.Ends[1]); got != 2 {
		t.Fatalf("covered(end of 2nd) = %d, want 2", got)
	}
	if got := lg.Covered(lg.Ends[1] - 1); got != 1 {
		t.Fatalf("covered(mid 2nd) = %d, want 1", got)
	}
	if got := lg.Covered(int64(len(data)) + 100); got != 3 {
		t.Fatalf("covered(past end) = %d, want 3", got)
	}
}

// referenceParse is ParseArrivalLog's contract spelled out on
// encoding/json alone: lines of only space, tab and carriage return are
// blank, every other line must unmarshal and (unless an advance) validate,
// and the first that does not ends the durable prefix.
func referenceParse(data []byte) ArrivalLog {
	var lg ArrivalLog
	for {
		rest := data[lg.Valid:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		line, end := rest[:nl], lg.Valid+int64(nl)+1
		if len(bytes.Trim(line, " \t\r")) > 0 {
			var rec ArrivalRecord
			if json.Unmarshal(line, &rec) != nil {
				break
			}
			if rec.Kind != "advance" && validateArrival(&rec) != nil {
				break
			}
			lg.Records = append(lg.Records, rec)
			lg.Ends = append(lg.Ends, end)
			lg.MaxSeq = max(lg.MaxSeq, rec.Seq)
		}
		lg.Valid = end
	}
	lg.Skipped = len(data) - int(lg.Valid)
	return lg
}

// FuzzParseArrivalLog: whatever bytes a crash leaves behind, the parser
// never panics, accounts for every byte, reports a Valid prefix that
// reparses with nothing skipped and identical records, and agrees with
// referenceParse on every field.
func FuzzParseArrivalLog(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte(`{"kind":"advance","at":1}` + "\n"))
	f.Add([]byte(`{"kind":"edge","at":1,"seq":2,"work_s":0.5}` + "\n" + `{"kind":"edge","at":2,"wo`))
	f.Add([]byte{0x00, 0xff, '\n', '{', '}'})
	f.Add([]byte(" \t\r\n" + `{"kind":"dcc","at":1,"seq":3,"frame_work_s":[1,2]}` + "\n"))
	f.Add([]byte("\f\n" + `{"kind":"advance","at":1}` + "\n"))
	f.Add([]byte(`{"kind":"edge","at":1,"work_s":0.5}` + "\n" + `{"kind":"edge", "at":2,"work_s":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lg := ParseArrivalLog(data)
		if ref := referenceParse(data); !reflect.DeepEqual(lg, ref) {
			t.Fatalf("parse differs from the encoding/json reference:\n got %+v\nwant %+v", lg, ref)
		}
		if lg.Valid+int64(lg.Skipped) != int64(len(data)) {
			t.Fatalf("valid %d + skipped %d != len %d", lg.Valid, lg.Skipped, len(data))
		}
		if len(lg.Records) != len(lg.Ends) {
			t.Fatalf("%d records, %d ends", len(lg.Records), len(lg.Ends))
		}
		again := ParseArrivalLog(data[:lg.Valid])
		if again.Skipped != 0 {
			t.Fatalf("reparse of valid prefix skipped %d bytes", again.Skipped)
		}
		if len(again.Records) != len(lg.Records) || again.MaxSeq != lg.MaxSeq {
			t.Fatalf("reparse diverged: %d/%d records, maxseq %d/%d",
				len(again.Records), len(lg.Records), again.MaxSeq, lg.MaxSeq)
		}
	})
}

// FuzzDecodeArrival pins the recognised layout to encoding/json: a line
// decodeCanonical accepts must unmarshal without error into a DeepEqual
// record, and decodeArrival must answer every line, accepted or not,
// with json.Unmarshal's record and error.
func FuzzDecodeArrival(f *testing.F) {
	var buf bytes.Buffer
	w := newArrivalWriter(&buf, 0)
	for _, rec := range []ArrivalRecord{
		{Kind: "advance", At: 0.48},
		{Kind: "edge", At: 1.25, Seq: 7, Tenant: 3, WorkS: 0.05, DeadlineS: 1, InputBytes: 16e3},
		{Kind: "dcc", At: 2, Seq: 8, Tenant: 1, FrameWorkS: []float64{2, 4.5, 1e-7}},
		{Kind: "edge", At: math.Copysign(0, -1), Seq: math.MaxUint64, WorkS: 1e21, DeadlineS: 5e-324},
	} {
		w.write(rec)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
		f.Add(line)
	}
	for _, line := range []string{
		// /v1/ingest lines.
		`{"kind":"edge","tenant":1,"work_s":0.02}`,
		`{"kind":"dcc","tenant":2,"frame_work_s":[2,4]}`,
		`{"kind":"edge","tenant":3,"work_s":0.05,"deadline_s":1}`,
		// Numbers outside the JSON grammar.
		`{"kind":"edge","at":01}`,
		`{"kind":"edge","at":1.}`,
		`{"kind":"edge","at":-}`,
		`{"kind":"edge","at":1e}`,
		// Numbers a uint64 field refuses.
		`{"kind":"edge","seq":1.5}`,
		`{"kind":"edge","seq":18446744073709551616}`,
		`{"kind":"edge","seq":-0}`,
		// Layouts only encoding/json reads.
		`{"kind":"dcc","frame_work_s":[]}`,
		`{"kind":"edge","work_s":1,"at":2}`,
		`{"kind":"edge","Work_S":1}`,
		`{"kind": "edge"}`,
		`{"kind":"\u0065dge"}`,
		`{"kind":"edge","at":null}`,
		`{"kind":"edge","at":1e400}`,
		`{"kind":"edge"}x`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want ArrivalRecord
		wantErr := json.Unmarshal(line, &want)
		if rec, ok := decodeCanonical(line); ok {
			if wantErr != nil {
				t.Fatalf("recognised %q, which json.Unmarshal rejects: %v", line, wantErr)
			}
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("recognised %q as %+v, json.Unmarshal gives %+v", line, rec, want)
			}
		}
		rec, err := decodeArrival(line)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("decodeArrival(%q) error %v, json.Unmarshal %v", line, err, wantErr)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("decodeArrival(%q) = %+v, json.Unmarshal gives %+v", line, rec, want)
		}
	})
}

// recordBits renders rec with every float as its IEEE bits, so that a
// comparison tells -0 from 0.
func recordBits(rec ArrivalRecord) string {
	s := fmt.Sprintf("%s seq=%d tenant=%d", rec.Kind, rec.Seq, rec.Tenant)
	for _, f := range append([]float64{rec.At, rec.WorkS, rec.DeadlineS, rec.InputBytes}, rec.FrameWorkS...) {
		s += fmt.Sprintf(" %016x", math.Float64bits(f))
	}
	return s
}

// TestWrittenLinesRecognised: every line arrivalWriter writes takes the
// recognised path and decodes back bit for bit — all three kinds, zero
// (omitted) fields, and the floats json.Marshal writes in exponent form,
// subnormals and negative zero. A field or tag change that pushes real
// WAL lines onto the json.Unmarshal path fails here.
func TestWrittenLinesRecognised(t *testing.T) {
	s := rng.New(15)
	special := []float64{
		math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
		0.1, -1.5, 16e3, 1e20, 1e21, 1.2345678901234567e21, math.MaxFloat64,
	}
	drawFloat := func() float64 {
		switch s.Intn(4) {
		case 0:
			return 0
		case 1:
			return special[s.Intn(len(special))]
		case 2:
			for {
				if f := math.Float64frombits(s.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		default:
			return s.Exp(20)
		}
	}
	drawUint := func() uint64 {
		switch s.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		case 2:
			return s.Uint64()
		default:
			return uint64(s.Intn(1000))
		}
	}
	const n = 20000
	var buf bytes.Buffer
	w := newArrivalWriter(&buf, 0)
	recs := make([]ArrivalRecord, n)
	for i := range recs {
		rec := ArrivalRecord{
			Kind: []string{"edge", "dcc", "advance"}[s.Intn(3)],
			At:   drawFloat(), Seq: drawUint(), Tenant: drawUint(),
			WorkS: drawFloat(), DeadlineS: drawFloat(), InputBytes: drawFloat(),
		}
		for k := s.Intn(4); k > 0; k-- {
			rec.FrameWorkS = append(rec.FrameWorkS, drawFloat())
		}
		recs[i] = rec
		w.write(rec)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != n {
		t.Fatalf("%d lines written, want %d", len(lines), n)
	}
	for i, line := range lines {
		got, ok := decodeCanonical(line)
		if !ok {
			t.Fatalf("written line %d not recognised: %s", i, line)
		}
		// json.Marshal omits a zero omitempty field, negative zero too,
		// so those read back as +0; `at` and frame work keep their sign.
		want := recs[i]
		for _, f := range []*float64{&want.WorkS, &want.DeadlineS, &want.InputBytes} {
			if *f == 0 {
				*f = 0
			}
		}
		if gotBits, wantBits := recordBits(got), recordBits(want); gotBits != wantBits {
			t.Fatalf("line %d %s\ndecodes to %s\n      want %s", i, line, gotBits, wantBits)
		}
	}
}

// benchWALRecords is the size of BenchmarkParseArrivalLog's log.
const benchWALRecords = 100_000

// BenchmarkParseArrivalLog reads back a fixed-seed 100k-record WAL in
// live-ingest shapes — edge arrivals carrying all six numeric fields, an
// advance about every 150 records — as written by arrivalWriter. Run it
// with -benchmem; ns/record is the read-back cost of one WAL line.
func BenchmarkParseArrivalLog(b *testing.B) {
	var buf bytes.Buffer
	w := newArrivalWriter(&buf, 0)
	for _, rec := range benchArrivals(benchWALRecords) {
		w.write(rec)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var lg ArrivalLog
	for i := 0; i < b.N; i++ {
		lg = ParseArrivalLog(data)
	}
	b.StopTimer()
	if len(lg.Records) != benchWALRecords || lg.Skipped != 0 {
		b.Fatalf("parsed %d records, skipped %d bytes", len(lg.Records), lg.Skipped)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchWALRecords), "ns/record")
}
