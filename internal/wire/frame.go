// Package wire implements the df3 multi-node mailbox protocol: a
// length-prefixed, CRC-guarded little-endian binary framing (the same
// defensive container idioms as the DF3CKPT checkpoint format) plus the
// typed messages a coordinator and its df3node workers exchange — the
// sealed build recipe and partition assignment, window-barrier proposals,
// cross-partition mailbox messages carrying the kernel's (at, src, seq)
// ordering, merged per-city results, metric and trace chunks, and a clean
// shutdown. The transport is any net.Conn (TCP or unix socket); the
// protocol is strictly lockstep — the coordinator sends one request, the
// worker sends exactly one reply — so a single connection needs no
// interleaving or correlation IDs.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Stream layout (all integers little-endian):
//
//	hello   [12]byte   magic "DF3WIRE\n" + version uint32, once per
//	                   direction at connect
//	frame:
//	    kind   uint32
//	    length uint32   payload bytes, ≤ MaxFrame
//	    crc    uint32   CRC-32 (IEEE) over kind|length|payload
//	    payload [length]byte
//
// The CRC covers the header too, so any flipped byte anywhere in a frame
// — kind, length, checksum or payload — fails verification instead of
// misframing the stream.

// Magic identifies a df3 wire stream.
var Magic = [8]byte{'D', 'F', '3', 'W', 'I', 'R', 'E', '\n'}

// ProtocolVersion is the wire protocol version this build speaks. There
// is no negotiation: a mismatch is an error, because both ends of a
// multi-node run must be the same build for determinism to mean anything.
const ProtocolVersion uint32 = 1

// MaxFrame bounds a frame payload (64 MiB). A corrupt length field fails
// here before any allocation happens.
const MaxFrame = 64 << 20

// Errors the reader distinguishes, mirroring the checkpoint container:
// ErrTruncated means the stream ended mid-structure (peer died, cable
// cut); ErrCorrupt means the bytes arrived but are wrong (bad magic,
// version skew, CRC mismatch, oversized length).
var (
	ErrTruncated = errors.New("wire: truncated stream")
	ErrCorrupt   = errors.New("wire: corrupt stream")
)

// WriteHello sends the magic preamble and protocol version.
func WriteHello(w io.Writer) error {
	var b [12]byte
	copy(b[:8], Magic[:])
	binary.LittleEndian.PutUint32(b[8:12], ProtocolVersion)
	_, err := w.Write(b[:])
	return err
}

// ReadHello validates the peer's preamble.
func ReadHello(r io.Reader) error {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: hello: %v", ErrTruncated, err)
	}
	if !bytes.Equal(b[:8], Magic[:]) {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != ProtocolVersion {
		return fmt.Errorf("%w: protocol version %d, want %d", ErrCorrupt, v, ProtocolVersion)
	}
	return nil
}

// WriteFrame emits one frame. The payload is borrowed, not retained.
func WriteFrame(w io.Writer, kind uint32, payload []byte) error {
	var fb frameBuf
	return fb.write(w, kind, payload)
}

// ReadFrame reads and verifies one frame. The payload comes back in a
// buffer of exactly its length. A payload longer than readChunk is first
// read chunk by chunk, so a corrupt length can cost at most the stream's
// real size plus one chunk — never a MaxFrame-sized allocation for a
// 3-byte attack.
func ReadFrame(r io.Reader) (kind uint32, payload []byte, err error) {
	var fb frameBuf
	return fb.read(r)
}

// frameBuf holds what one end of a connection frames with: the buffer
// every outgoing frame is built in and the header every incoming frame is
// read into. Client and Serve each keep one, so a frame written allocates
// nothing once the buffer has grown to the largest frame sent, and a frame
// read allocates only its payload.
type frameBuf struct {
	out []byte
	hdr [12]byte
}

// write emits one frame. The payload is borrowed, not retained.
func (fb *frameBuf) write(w io.Writer, kind uint32, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame kind %d payload %d bytes exceeds MaxFrame %d", kind, len(payload), MaxFrame)
	}
	b := binary.LittleEndian.AppendUint32(fb.out[:0], kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, b), crc32.IEEETable, payload)
	b = binary.LittleEndian.AppendUint32(b, crc)
	b = append(b, payload...)
	fb.out = b
	// One Write per frame: a zero-length payload write would stall
	// rendezvous transports (net.Pipe) whose reader never issues the
	// matching zero-byte read, and one syscall per frame is kinder to
	// TCP besides.
	_, err := w.Write(b)
	return err
}

// read reads and verifies one frame (see ReadFrame).
func (fb *frameBuf) read(r io.Reader) (kind uint32, payload []byte, err error) {
	hdr := fb.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("%w: frame header: %v", ErrTruncated, err)
	}
	kind = binary.LittleEndian.Uint32(hdr[0:4])
	length := binary.LittleEndian.Uint32(hdr[4:8])
	sum := binary.LittleEndian.Uint32(hdr[8:12])
	if length > MaxFrame {
		return 0, nil, fmt.Errorf("%w: frame kind %d claims %d bytes, max %d", ErrCorrupt, kind, length, MaxFrame)
	}
	payload, err = readPayload(r, int(length))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: frame payload: %v", ErrTruncated, err)
	}
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, hdr[0:8]), crc32.IEEETable, payload)
	if crc != sum {
		return 0, nil, fmt.Errorf("%w: frame kind %d CRC %#08x, want %#08x", ErrCorrupt, kind, crc, sum)
	}
	return kind, payload, nil
}

// readChunk bounds how much of a long payload is allocated ahead of the
// bytes that have actually arrived.
const readChunk = 64 << 10

// readPayload reads exactly n bytes into a buffer of length n. Up to
// readChunk bytes are read in place; a longer payload is gathered in
// chunks and copied once all of it has arrived.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= readChunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var chunks [][]byte
	for left := n; left > 0; {
		c := make([]byte, min(left, readChunk))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
		left -= len(c)
	}
	buf := make([]byte, 0, n)
	for _, c := range chunks {
		buf = append(buf, c...)
	}
	return buf, nil
}
