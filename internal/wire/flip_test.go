package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// buildStream produces a representative session byte stream: the hello
// preamble followed by a handful of frames of different kinds and sizes.
func buildStream(t *testing.T) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	frames := [][2]any{
		{FrameAssign, EncodeAssign(Assign{Recipe: []byte(`{"seed":1,"cities":2}`), Shards: 2, Owned: []int{0}})},
		{FramePropose, []byte(nil)},
		{FrameNext, EncodeNext(Next{Has: true, T: 123.5})},
		{FrameError, EncodeError("some failure")},
		{FrameBye, []byte(nil)},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f[0].(uint32), f[1].([]byte)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), len(frames)
}

// parseStream replays a session read: hello, then exactly want frames —
// the shape every real session has, where a next frame is always
// expected until Bye.
func parseStream(b []byte, want int) error {
	r := bytes.NewReader(b)
	if err := ReadHello(r); err != nil {
		return err
	}
	for i := 0; i < want; i++ {
		if _, _, err := ReadFrame(r); err != nil {
			return err
		}
	}
	return nil
}

// TestEveryByteFlipRejected: flipping any single byte anywhere in the
// stream — magic, version, frame headers, CRCs, payloads — must surface
// as ErrCorrupt or ErrTruncated. The frame CRC covers its header, so no
// flip can silently misframe or misroute.
func TestEveryByteFlipRejected(t *testing.T) {
	stream, frames := buildStream(t)
	if err := parseStream(stream, frames); err != nil {
		t.Fatalf("pristine stream failed: %v", err)
	}
	for i := range stream {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0xff
		err := parseStream(mut, frames)
		if err == nil {
			t.Fatalf("flip at byte %d of %d parsed cleanly", i, len(stream))
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("flip at byte %d: error %v is neither ErrCorrupt nor ErrTruncated", i, err)
		}
	}
}

// TestEveryTruncationRejected: cutting the stream anywhere must surface
// as ErrTruncated (or ErrCorrupt), never a hang or a clean parse.
func TestEveryTruncationRejected(t *testing.T) {
	stream, frames := buildStream(t)
	for cut := 0; cut < len(stream); cut++ {
		err := parseStream(stream[:cut], frames)
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes parsed cleanly", cut, len(stream))
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation to %d: error %v is neither ErrCorrupt nor ErrTruncated", cut, err)
		}
	}
}

// TestCorruptLengthNoGiantAllocation: a frame header lying about its
// length must fail without allocating what the lie promises. A 3-byte
// stream claiming a 32 MiB payload costs one read chunk, and a length
// beyond MaxFrame is rejected before any read at all.
func TestCorruptLengthNoGiantAllocation(t *testing.T) {
	lie := func(length uint32) []byte {
		var b [12]byte
		b[0] = 1 // kind
		b[4] = byte(length)
		b[5] = byte(length >> 8)
		b[6] = byte(length >> 16)
		b[7] = byte(length >> 24)
		return append(b[:], 0xaa, 0xbb, 0xcc)
	}
	if _, _, err := ReadFrame(bytes.NewReader(lie(32 << 20))); !errors.Is(err, ErrTruncated) {
		t.Errorf("32 MiB lie over 3 bytes: %v, want ErrTruncated", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(lie(MaxFrame + 1))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over-MaxFrame length: %v, want ErrCorrupt", err)
	}
	stream := lie(32 << 20)
	allocs, bytesPer := allocsAndBytes(10, func() {
		ReadFrame(bytes.NewReader(stream))
	})
	// Reading 3 real bytes needs one chunk plus the error; a 32 MiB
	// pre-allocation would dwarf both bounds.
	if allocs > 20 {
		t.Errorf("corrupt length cost %.0f allocations", allocs)
	}
	if limit := float64(2*len(stream) + readChunk + 4096); bytesPer > limit {
		t.Errorf("corrupt length cost %.0f bytes, over %.0f", bytesPer, limit)
	}
}

// allocsAndBytes runs f runs times and returns the mean number of heap
// allocations and of bytes allocated per run.
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	f() // warm up, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// FuzzReadFrame: no input makes the frame reader panic, a frame that
// WriteFrame wrote reads back as written, and a read allocates at most
// twice the input plus one read chunk (and a few KiB for its error),
// whatever its header claims.
func FuzzReadFrame(f *testing.F) {
	var frame bytes.Buffer
	if err := WriteFrame(&frame, FrameNext, EncodeNext(Next{Has: true, T: 123.5})); err != nil {
		f.Fatal(err)
	}
	f.Add(frame.Bytes())
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0xaa})
	f.Add([]byte{6, 0, 0, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		_, bytesRead := allocsAndBytes(1, func() {
			ReadFrame(bytes.NewReader(in))
		})
		if limit := float64(2*len(in) + readChunk + 4096); bytesRead > limit {
			t.Fatalf("reading %d input bytes allocated %.0f bytes, over %.0f", len(in), bytesRead, limit)
		}
		kind := uint32(len(in) % 17)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, kind, in); err != nil {
			t.Fatal(err)
		}
		gotKind, got, err := ReadFrame(&buf)
		if err != nil || gotKind != kind || !bytes.Equal(got, in) || buf.Len() != 0 {
			t.Fatalf("round trip of %d bytes: kind %d, %d bytes, %d left, err %v", len(in), gotKind, len(got), buf.Len(), err)
		}
	})
}

// TestHelloRejectsWrongVersion: version skew is corruption, not
// negotiation — both ends must be the same build.
func TestHelloRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8]++
	if err := ReadHello(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version skew: %v, want ErrCorrupt", err)
	}
}

// TestWriteFrameRejectsOversize: the writer refuses what the reader
// would refuse.
func TestWriteFrameRejectsOversize(t *testing.T) {
	err := WriteFrame(io.Discard, 1, make([]byte, MaxFrame+1))
	if err == nil {
		t.Fatal("WriteFrame accepted an over-MaxFrame payload")
	}
}
