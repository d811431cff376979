// Tolerant arrival-log parsing: the arrival log doubles as df3d's
// write-ahead log, and a crashed process leaves a torn tail — a final line
// cut mid-record, or garbage from a partially flushed buffer. Recovery
// must accept everything durable and discard exactly the tail, never
// panic, and never misread damage as data. ParseArrivalLog is that
// boundary: it walks the NDJSON stream record by record and stops at the
// first incomplete or malformed line, reporting the durable prefix length
// so the caller can truncate the file there and append safely.
package api

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"

	"df3/internal/city"
)

// ArrivalLog is the tolerant parse of an NDJSON arrival log.
type ArrivalLog struct {
	// Records are the well-formed records of the durable prefix, in log
	// order. Validation defaults (e.g. edge input bytes) are already
	// applied, exactly as replay would apply them.
	Records []ArrivalRecord
	// Ends[i] is the byte offset just past Records[i]'s newline, so a
	// checkpoint's WALOffset maps to a record count via Covered.
	Ends []int64
	// Valid is the length in bytes of the durable, well-formed prefix.
	// Truncating the file to Valid yields a log that reparses with
	// Skipped == 0 and is safe to append to.
	Valid int64
	// Skipped counts the bytes discarded after Valid — the torn or
	// corrupt tail. Zero for a cleanly closed log.
	Skipped int
	// MaxSeq is the highest injection sequence among Records (0 if none
	// carry one). A recovered session resumes numbering past it.
	MaxSeq uint64
}

// ParseArrivalLog parses data tolerantly. It never fails: damage truncates
// the parse at the last complete record before it, and the remainder is
// accounted for in Skipped. An unterminated final line is always treated
// as torn — only a trailing newline proves the record was written whole.
func ParseArrivalLog(data []byte) ArrivalLog {
	var lg ArrivalLog
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // unterminated tail
		}
		line := rest[:nl]
		end := off + int64(nl) + 1
		if isBlank(line) {
			// Blank lines carry nothing but are well-formed NDJSON.
			lg.Valid, off = end, end
			continue
		}
		rec, err := decodeArrival(line)
		if err != nil {
			break
		}
		if rec.Kind != "advance" {
			if err := validateArrival(&rec); err != nil {
				break
			}
		}
		lg.Records = append(lg.Records, rec)
		lg.Ends = append(lg.Ends, end)
		if rec.Seq > lg.MaxSeq {
			lg.MaxSeq = rec.Seq
		}
		lg.Valid, off = end, end
	}
	lg.Skipped = len(data) - int(lg.Valid)
	return lg
}

// isBlank reports whether line holds nothing but the JSON whitespace a
// line can carry: space, tab and carriage return. Other spaces — \v, \f,
// U+00A0, U+2028 and the like — are not JSON whitespace, so a line of
// them is damage, not a blank line.
func isBlank(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// decodeArrival decodes one arrival-log or ingest line. The result and
// the error are exactly json.Unmarshal's into a zero ArrivalRecord; lines
// in the layout json.Marshal writes just get there without reflection.
// The record is returned by value: a pointer that can reach
// json.Unmarshal would move every record to the heap.
func decodeArrival(line []byte) (ArrivalRecord, error) {
	if rec, ok := decodeCanonical(line); ok {
		return rec, nil
	}
	var rec ArrivalRecord
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// decodeCanonical decodes line if it has exactly the layout json.Marshal
// gives an ArrivalRecord: {"kind": with "edge", "dcc" or "advance", then
// any of the other fields in declaration order, with no whitespace and
// no escapes. Each number must match the JSON number grammar and is
// converted by the strconv call encoding/json makes for its field, so an
// accepted line decodes exactly as json.Unmarshal decodes it. ok is false
// for every other line, well-formed or not.
func decodeCanonical(line []byte) (rec ArrivalRecord, ok bool) {
	p := recordScanner{s: line, ok: true}
	if !p.cut(`{"kind":"`) {
		return rec, false
	}
	switch {
	case p.cut(`edge"`):
		rec.Kind = "edge"
	case p.cut(`dcc"`):
		rec.Kind = "dcc"
	case p.cut(`advance"`):
		rec.Kind = "advance"
	default:
		return rec, false
	}
	p.floatField(`,"at":`, &rec.At)
	p.uintField(`,"seq":`, &rec.Seq)
	p.uintField(`,"tenant":`, &rec.Tenant)
	p.floatField(`,"work_s":`, &rec.WorkS)
	p.floatField(`,"deadline_s":`, &rec.DeadlineS)
	p.floatField(`,"input_bytes":`, &rec.InputBytes)
	p.floatsField(`,"frame_work_s":[`, &rec.FrameWorkS)
	return rec, p.ok && string(p.s) == "}"
}

// recordScanner walks one canonical line. s is the unread rest; ok turns
// false at the first byte outside the layout and stays false.
type recordScanner struct {
	s  []byte
	ok bool
}

// cut consumes prefix if the scan is still good and s starts with it.
func (p *recordScanner) cut(prefix string) bool {
	if !p.ok || len(p.s) < len(prefix) || string(p.s[:len(prefix)]) != prefix {
		return false
	}
	p.s = p.s[len(prefix):]
	return true
}

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and fails the scan if
// the line does not start with one. The scan must be good on entry.
func (p *recordScanner) number() []byte {
	s := p.s
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	d := digits(s, i)
	ok := d > i && (s[i] != '0' || d == i+1) // no leading zeros
	i = d
	if ok && i < len(s) && s[i] == '.' {
		d = digits(s, i+1)
		ok, i = d > i+1, d
	}
	if ok && i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		d = digits(s, i)
		ok, i = d > i, d
	}
	p.ok = ok
	p.s = s[i:]
	return s[:i]
}

// digits returns the index of the first byte at or after i that is not
// a decimal digit.
func digits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// float consumes one number and converts it as encoding/json does for a
// float64: out-of-range values fail the scan.
func (p *recordScanner) float() float64 {
	num := p.number()
	if !p.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	p.ok = err == nil
	return f
}

// floatField reads the float64 field key, if present.
func (p *recordScanner) floatField(key string, dst *float64) {
	if p.cut(key) {
		*dst = p.float()
	}
}

// uintField reads the uint64 field key, if present. As in encoding/json,
// a fraction, an exponent, a sign or an overflow fails it.
func (p *recordScanner) uintField(key string, dst *uint64) {
	if !p.cut(key) {
		return
	}
	num := p.number()
	if p.ok {
		n, err := strconv.ParseUint(string(num), 10, 64)
		*dst, p.ok = n, err == nil
	}
}

// floatsField reads the []float64 field whose key, with its opening
// bracket, is key. An empty array fails the scan: json.Marshal omits
// one, and json.Unmarshal decodes it to a non-nil empty slice.
func (p *recordScanner) floatsField(key string, dst *[]float64) {
	if !p.cut(key) {
		return
	}
	var fs []float64
	for more := true; more; more = p.cut(",") {
		fs = append(fs, p.float())
	}
	*dst, p.ok = fs, p.cut("]")
}

// Covered returns how many records lie entirely within the first n bytes
// of the log — the records a checkpoint with WALOffset == n has already
// incorporated.
func (lg *ArrivalLog) Covered(n int64) int {
	return sort.Search(len(lg.Ends), func(i int) bool { return lg.Ends[i] > n })
}

// ReplayRecords applies parsed arrival records to a federation in batch:
// advance records become Run calls, arrivals become direct submissions, in
// log order. Outcome callbacks are nil — replay observes nothing, which is
// what keeps it byte-identical to the live run.
func ReplayRecords(f *city.Federation, recs []ArrivalRecord) {
	for _, rec := range recs {
		if rec.Kind == "advance" {
			f.Run(rec.At)
			continue
		}
		applyArrival(f, rec, nil, nil)
	}
}
