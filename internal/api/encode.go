package api

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Append encoders for the two line types the live plane writes per
// request: WAL records and /v1/ingest result lines. Each writes exactly
// the bytes encoding/json writes for the same value — field order and
// omitempty from the struct tags, its float and string forms — without
// reflection. FuzzAppendArrival and FuzzAppendIngestResult pin them to
// encoding/json, the write-side twins of FuzzDecodeArrival.

// unsupportedFloatError is the error json.Marshal returns for a NaN or
// infinite float, with the same message.
type unsupportedFloatError float64

func (e unsupportedFloatError) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(e), 'g', -1, 64)
}

// finite returns an error for the first NaN or infinite value, which
// encoding/json refuses to encode.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return unsupportedFloatError(f)
		}
	}
	return nil
}

// appendArrival appends rec as json.Marshal encodes it.
func appendArrival(dst []byte, rec *ArrivalRecord) ([]byte, error) {
	if err := finite(rec.At, rec.WorkS, rec.DeadlineS, rec.InputBytes); err != nil {
		return dst, err
	}
	if err := finite(rec.FrameWorkS...); err != nil {
		return dst, err
	}
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, rec.Kind)
	dst = append(dst, `,"at":`...)
	dst = appendJSONFloat(dst, rec.At)
	if rec.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, rec.Seq, 10)
	}
	if rec.Tenant != 0 {
		dst = append(dst, `,"tenant":`...)
		dst = strconv.AppendUint(dst, rec.Tenant, 10)
	}
	if rec.WorkS != 0 {
		dst = append(dst, `,"work_s":`...)
		dst = appendJSONFloat(dst, rec.WorkS)
	}
	if rec.DeadlineS != 0 {
		dst = append(dst, `,"deadline_s":`...)
		dst = appendJSONFloat(dst, rec.DeadlineS)
	}
	if rec.InputBytes != 0 {
		dst = append(dst, `,"input_bytes":`...)
		dst = appendJSONFloat(dst, rec.InputBytes)
	}
	if len(rec.FrameWorkS) > 0 {
		dst = append(dst, `,"frame_work_s":[`...)
		for i, f := range rec.FrameWorkS {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendIngestLine appends one /v1/ingest result line, newline included,
// as a json.Encoder encodes a lineResult. On error dst is returned as it
// was: the Encoder writes nothing for a value it cannot encode.
func appendIngestLine(dst []byte, lr *lineResult) ([]byte, error) {
	if err := finite(lr.SimLatS, lr.WallMs); err != nil {
		return dst, err
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(lr.Index), 10)
	if lr.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, lr.Error)
	}
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, lr.Outcome)
	if lr.Escalated {
		dst = append(dst, `,"escalated":true`...)
	}
	if lr.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = strconv.AppendInt(dst, int64(lr.Attempts), 10)
	}
	if lr.Tasks != 0 {
		dst = append(dst, `,"tasks":`...)
		dst = strconv.AppendInt(dst, int64(lr.Tasks), 10)
	}
	dst = append(dst, `,"sim_latency_s":`...)
	dst = appendJSONFloat(dst, lr.SimLatS)
	dst = append(dst, `,"wall_ms":`...)
	dst = appendJSONFloat(dst, lr.WallMs)
	if lr.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, lr.Seq, 10)
	}
	return append(dst, "}\n"...), nil
}

// appendJSONFloat appends a finite float64 in encoding/json's form: the
// shortest decimal that round-trips, in 'f' notation, or in 'e' notation
// below 1e-6 or from 1e21 in magnitude, with a negative exponent's
// leading zero dropped (1e-07 becomes 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes a string with
// HTML escaping on: control bytes, quote, backslash and <, >, & escaped
// (\b, \f, \n, \r and \t by name, the rest as \u00XX), each byte of
// invalid UTF-8 as \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
