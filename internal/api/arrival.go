// Arrival logging and replay: the live serving plane's determinism
// contract. A paced run records every external arrival at the simulated
// instant it was applied, plus every Run-slice boundary the driver crossed.
// Replaying the log in batch reproduces the exact same sequence of engine
// calls — injections applied at the same sim times, slices cut at the same
// boundaries — so the replayed federation reaches a byte-identical
// Checksum. Live traffic is thereby auditable offline: any production
// window can be re-executed, instrumented, and diffed.
package api

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"df3/internal/city"
	"df3/internal/core"
	"df3/internal/units"
	"df3/internal/workload"
)

// ArrivalRecord is one line of the NDJSON arrival log.
//
// Kind "advance" marks a driver slice boundary: the engine ran to At. Kind
// "edge" and "dcc" are external arrivals applied while the engine stood at
// At. Record order in the log is application order; replay preserves it.
type ArrivalRecord struct {
	Kind string  `json:"kind"`
	At   float64 `json:"at"`
	// Seq is the injection sequence number (absent on advance records).
	// DCC job IDs derive from it, so replayed jobs carry the same IDs.
	Seq uint64 `json:"seq,omitempty"`
	// Tenant selects the (city, building, device) the arrival lands on.
	Tenant uint64 `json:"tenant,omitempty"`
	// Edge fields.
	WorkS      float64 `json:"work_s,omitempty"`
	DeadlineS  float64 `json:"deadline_s,omitempty"`
	InputBytes float64 `json:"input_bytes,omitempty"`
	// DCC fields.
	FrameWorkS []float64 `json:"frame_work_s,omitempty"`
}

// liveJobBit offsets live-injected DCC job IDs away from scenario
// generators' ID spaces.
const liveJobBit = uint64(1) << 48

// locate maps a tenant id onto the federation topology: city by low
// residue, then building, then device — adjacent tenants spread across
// cities first, the coarsest failure domain.
func locate(f *city.Federation, tenant uint64) (*city.City, *city.Building, *city.Room) {
	nc := uint64(len(f.Cities))
	c := f.Cities[tenant%nc]
	rest := tenant / nc
	nb := uint64(len(c.Buildings))
	b := c.Buildings[rest%nb]
	rest /= nb
	room := b.Rooms[rest%uint64(len(b.Rooms))]
	return c, b, room
}

// validateArrival checks the request fields common to live ingest and
// replay. Topology lookups are immutable after build, so this is safe on
// handler goroutines.
func validateArrival(rec *ArrivalRecord) error {
	switch rec.Kind {
	case "edge":
		if rec.WorkS <= 0 {
			return fmt.Errorf("work_s must be positive")
		}
		if rec.DeadlineS < 0 {
			return fmt.Errorf("deadline_s must be non-negative")
		}
		if rec.InputBytes < 0 {
			return fmt.Errorf("input_bytes must be non-negative")
		}
		if rec.InputBytes == 0 {
			rec.InputBytes = 16e3
		}
	case "dcc":
		if len(rec.FrameWorkS) == 0 {
			return fmt.Errorf("job needs at least one frame")
		}
		for _, w := range rec.FrameWorkS {
			if w <= 0 {
				return fmt.Errorf("frame work must be positive")
			}
		}
	default:
		return fmt.Errorf("unknown arrival kind %q", rec.Kind)
	}
	return nil
}

// applyArrival submits one recorded arrival into the federation. The
// engine must be quiescent (between driver slices, or under the batch
// driver). Outcome callbacks are pure observation, so live (with
// callbacks) and replay (nil callbacks) drive identical simulations.
func applyArrival(f *city.Federation, rec ArrivalRecord, onEdge func(core.EdgeOutcome), onDCC func(core.DCCOutcome)) {
	c, b, room := locate(f, rec.Tenant)
	switch rec.Kind {
	case "edge":
		req := workload.EdgeRequest{
			Work:     rec.WorkS,
			Deadline: rec.DeadlineS,
			Input:    units.Byte(rec.InputBytes),
			Output:   200,
			Device:   room.Index,
		}
		c.MW.SubmitEdgeOutcome(b.Cluster, room.Node, req, onEdge)
	case "dcc":
		job := workload.BatchJob{
			ID:       liveJobBit | rec.Seq,
			TaskWork: rec.FrameWorkS,
			Input:    5e6, Output: 2e6,
		}
		c.MW.SubmitDCCOutcome(b.Cluster, c.Operator, job, onDCC)
	}
}

// arrivalWriter serialises records to an NDJSON stream, each line the
// bytes json.Marshal gives the record (appendArrival), and tracks the
// absolute byte offset of the log, so a checkpoint can seal exactly how
// much of the WAL it covers. Live writes all happen on the driver
// goroutine, but Flush/Sync (shutdown, checkpoints) come from other
// paths, so a mutex guards the buffer.
type arrivalWriter struct {
	mu      sync.Mutex
	w       io.Writer // underlying sink, for fsync
	bw      *bufio.Writer
	off     int64 // absolute log length including buffered bytes
	durable int64 // absolute length known fsynced — off−durable is the crash-loss window
	err     error
	line    []byte // the record being written, reused across writes
	// syncEach makes every record durable as it is written — zero
	// acknowledged-but-lost window, one fsync per arrival.
	syncEach bool
}

// newArrivalWriter wraps w. base is the byte offset w already holds —
// non-zero when a recovered daemon reopened its log in append mode (a
// reopened prefix is durable by definition: recovery just replayed it).
func newArrivalWriter(w io.Writer, base int64) *arrivalWriter {
	return &arrivalWriter{w: w, bw: bufio.NewWriter(w), off: base, durable: base}
}

// Offsets reports (written, durable) byte offsets — the live WAL lag
// gauges. Written includes buffered bytes; durable is the last fsynced
// length.
func (a *arrivalWriter) Offsets() (written, durable int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.off, a.durable
}

func (a *arrivalWriter) write(rec ArrivalRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	b, err := appendArrival(a.line[:0], &rec)
	if err != nil {
		a.err = err
		return
	}
	b = append(b, '\n')
	a.line = b
	if _, err := a.bw.Write(b); err != nil {
		a.err = err
		return
	}
	a.off += int64(len(b))
	if a.syncEach {
		if a.flushLocked() != nil {
			return
		}
		if s, ok := a.w.(interface{ Sync() error }); ok {
			a.err = s.Sync()
		}
		if a.err == nil {
			a.durable = a.off
		}
	}
}

// Flush drains the buffer and reports the first write error, if any.
func (a *arrivalWriter) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked()
}

func (a *arrivalWriter) flushLocked() error {
	if a.err != nil {
		return a.err
	}
	a.err = a.bw.Flush()
	return a.err
}

// Sync flushes and, when the sink supports it (an *os.File), fsyncs —
// making everything written so far durable. It returns the durable log
// length, the WALOffset a checkpoint taken now must record.
func (a *arrivalWriter) Sync() (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.flushLocked(); err != nil {
		return a.off, err
	}
	if s, ok := a.w.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			a.err = err
			return a.off, err
		}
	}
	a.durable = a.off
	return a.off, nil
}

// ReplayArrivals re-executes a recorded arrival log against a freshly
// built federation in batch: advance records become Run calls, arrival
// records become direct submissions. Given the same FederationConfig the
// replayed run is byte-identical to the live one — compare
// Federation.Checksum.
//
// Parsing is tolerant (ParseArrivalLog): a torn or corrupt tail — the
// normal residue of a crash — is skipped, and the durable prefix replays.
// Callers that need the skipped byte count parse the log themselves.
func ReplayArrivals(f *city.Federation, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("arrival log: %w", err)
	}
	lg := ParseArrivalLog(data)
	ReplayRecords(f, lg.Records)
	return nil
}
