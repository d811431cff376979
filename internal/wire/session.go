package wire

import (
	"fmt"
	"net"
	"time"

	"df3/internal/city"
)

// HandshakeError marks a session that ended before the peer completed a
// valid hello — a port scanner, a readiness probe, or a mismatched
// build. Nothing was assigned yet, so a worker may keep listening.
type HandshakeError struct{ Err error }

func (e *HandshakeError) Error() string { return e.Err.Error() }
func (e *HandshakeError) Unwrap() error { return e.Err }

// ServeOptions tunes a worker session.
type ServeOptions struct {
	// Timeout bounds the wait for each coordinator request and the write
	// of each reply; ≤0 means DefaultTimeout. A coordinator that dies
	// mid-run surfaces here and the worker exits with an error instead
	// of lingering forever.
	Timeout time.Duration
	// TraceCapacity, when positive, enables span tracing on the built
	// federation so FrameTrace can answer with real spans.
	TraceCapacity int
	// Logf, when set, receives one line per session milestone (assign,
	// bye) for the worker's stderr log.
	Logf func(format string, args ...any)
}

// Serve runs one worker session over an established connection: receive
// the sealed recipe and partition, build the federation, then answer the
// coordinator's lockstep requests until Bye. It returns nil only after a
// clean Bye; any transport, protocol or application failure is returned
// (and, for application failures, also reported to the coordinator as a
// FrameError reply before the session ends — once a request fails, the
// run's determinism contract is broken and there is nothing to continue).
func Serve(conn net.Conn, opts ServeOptions) error {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := conn.SetDeadline(wallNow().Add(timeout)); err != nil {
		return err
	}
	// The dialer speaks first; answering only after a valid hello keeps
	// the handshake deadlock-free on unbuffered transports and silent
	// toward port scanners. A failure here is typed HandshakeError so a
	// worker can tell a readiness probe (connect-and-close) from a real
	// coordinator dying mid-run, and keep listening.
	if err := ReadHello(conn); err != nil {
		return &HandshakeError{Err: err}
	}
	if err := WriteHello(conn); err != nil {
		return fmt.Errorf("wire: hello: %w", err)
	}

	var (
		fed    *city.Federation
		owned  []int
		frames frameBuf
	)
	// sendErr reports an application failure to the coordinator and ends
	// the session with it.
	sendErr := func(err error) error {
		werr := frames.write(conn, FrameError, EncodeError(err.Error()))
		if werr != nil {
			return fmt.Errorf("%w (and reporting it failed: %v)", err, werr)
		}
		return err
	}
	for {
		if err := conn.SetDeadline(wallNow().Add(timeout)); err != nil {
			return err
		}
		kind, payload, err := frames.read(conn)
		if err != nil {
			return err
		}
		var reply uint32
		var body []byte
		switch kind {
		case FrameAssign:
			if fed != nil {
				return sendErr(fmt.Errorf("wire: second Assign on one session"))
			}
			a, err := DecodeAssign(payload)
			if err != nil {
				return sendErr(err)
			}
			f, err := buildPartition(a, opts.TraceCapacity)
			if err != nil {
				return sendErr(err)
			}
			fed, owned = f, a.Owned
			logf("assigned %d cities (%d..%d) over %d shards, recipe %d bytes",
				len(owned), owned[0], owned[len(owned)-1], a.Shards, len(a.Recipe))
			reply = FrameReady
			body = EncodeReady(Ready{Owned: owned, Lookahead: fed.Backbone.MinDelay()})
		case FramePropose:
			if fed == nil {
				return sendErr(fmt.Errorf("wire: Propose before Assign"))
			}
			t, has, err := fed.Kernel.NextEvent()
			if err != nil {
				return sendErr(err)
			}
			reply = FrameNext
			body = EncodeNext(Next{Has: has, T: t})
		case FrameWindow:
			if fed == nil {
				return sendErr(fmt.Errorf("wire: Window before Assign"))
			}
			end, err := DecodeWindow(payload)
			if err != nil {
				return sendErr(err)
			}
			res, err := fed.Kernel.RunWindow(end)
			if err != nil {
				return sendErr(err)
			}
			reply = FrameResult
			body = EncodeResult(res)
		case FrameDeliver:
			if fed == nil {
				return sendErr(fmt.Errorf("wire: Deliver before Assign"))
			}
			batch, err := DecodeMsgs(payload)
			if err != nil {
				return sendErr(err)
			}
			if err := fed.Kernel.Deliver(batch); err != nil {
				return sendErr(err)
			}
			reply = FrameDeliverOK
		case FrameStates:
			if fed == nil {
				return sendErr(fmt.Errorf("wire: States before Assign"))
			}
			states := make([]city.CityState, 0, len(owned))
			for _, ci := range owned {
				states = append(states, fed.CityState(ci))
			}
			reply = FrameStatesReply
			body = EncodeStates(states)
		case FrameMetrics:
			if fed == nil {
				return sendErr(fmt.Errorf("wire: Metrics before Assign"))
			}
			var buf writerBuf
			if err := fed.Observability().WritePrometheus(&buf); err != nil {
				return sendErr(err)
			}
			reply = FrameMetricsReply
			body = EncodeChunk(buf.b)
		case FrameTrace:
			if fed == nil {
				return sendErr(fmt.Errorf("wire: Trace before Assign"))
			}
			var buf writerBuf
			if opts.TraceCapacity > 0 {
				if err := fed.MergedTrace().WriteSpansJSONL(&buf); err != nil {
					return sendErr(err)
				}
			}
			reply = FrameTraceReply
			body = EncodeChunk(buf.b)
		case FrameBye:
			if err := frames.write(conn, FrameByeOK, nil); err != nil {
				return err
			}
			logf("bye")
			return nil
		default:
			return sendErr(fmt.Errorf("wire: unexpected frame kind %d", kind))
		}
		if err := frames.write(conn, reply, body); err != nil {
			return err
		}
	}
}

// buildPartition turns an Assign into this node's restricted federation,
// validating everything the coordinator sent before Restrict (which
// treats violations as programming bugs and panics).
func buildPartition(a Assign, traceCapacity int) (*city.Federation, error) {
	spec, err := city.ParseSpec(a.Recipe)
	if err != nil {
		return nil, err
	}
	if a.Shards < 1 {
		return nil, fmt.Errorf("wire: assign with %d shards", a.Shards)
	}
	if len(a.Owned) == 0 {
		return nil, fmt.Errorf("wire: assign with no owned cities")
	}
	for i, ci := range a.Owned {
		if ci < 0 || ci >= spec.Cities {
			return nil, fmt.Errorf("wire: assign owns city %d of %d", ci, spec.Cities)
		}
		if i > 0 && a.Owned[i-1] >= ci {
			return nil, fmt.Errorf("wire: assign owned cities must be ascending and unique")
		}
	}
	f := spec.Build(a.Shards)
	if traceCapacity > 0 {
		f.EnableTracing(traceCapacity)
	}
	f.Restrict(a.Owned)
	return f, nil
}

// writerBuf is a minimal io.Writer over a byte slice.
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
