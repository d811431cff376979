package wire

import (
	"fmt"
	"net"
	"time"

	"df3/internal/city"
	"df3/internal/shard"
	"df3/internal/sim"
)

// wallNow is the wire layer's one wall-clock read, feeding socket
// deadlines only.
func wallNow() time.Time {
	return time.Now() //df3:allow(detrand) socket deadlines bound a real network peer; wall time never enters simulation state
}

// Client is the coordinator's handle on one df3node worker. It speaks
// the lockstep request/reply protocol over a single connection and
// implements shard.Part, so shard.Sync drives a remote partition exactly
// as it drives an in-process Kernel. Every round trip runs under a wall
// deadline: a worker that dies or wedges surfaces as an error within
// Timeout, and the coordinator fails the run fast rather than deadlock
// the barrier. A Client is not safe for concurrent use; Sync calls each
// Part from one goroutine at a time.
type Client struct {
	conn    net.Conn
	frames  frameBuf
	name    string
	timeout time.Duration
	owned   []int
	broken  error
}

// DefaultTimeout bounds one round trip (including the worker executing
// a full window) unless the caller overrides it.
const DefaultTimeout = 5 * time.Minute

// NewClient wraps an established connection and exchanges hellos. name
// labels the worker in errors (its address, typically); timeout bounds
// every round trip, ≤0 meaning DefaultTimeout.
func NewClient(conn net.Conn, name string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	c := &Client{conn: conn, name: name, timeout: timeout}
	if err := conn.SetDeadline(wallNow().Add(timeout)); err != nil {
		return nil, fmt.Errorf("wire: worker %s: %w", name, err)
	}
	if err := WriteHello(conn); err != nil {
		return nil, fmt.Errorf("wire: worker %s: hello: %w", name, err)
	}
	if err := ReadHello(conn); err != nil {
		return nil, fmt.Errorf("wire: worker %s: %w", name, err)
	}
	return c, nil
}

// Dial connects to a worker ("tcp", "host:port" or "unix", "/path") and
// performs the handshake.
func Dial(network, addr string, timeout time.Duration) (*Client, error) {
	d := timeout
	if d <= 0 {
		d = DefaultTimeout
	}
	conn, err := net.DialTimeout(network, addr, d)
	if err != nil {
		return nil, fmt.Errorf("wire: worker %s: %w", addr, err)
	}
	c, err := NewClient(conn, addr, timeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close tears down the connection without protocol ceremony. Use Bye for
// a clean shutdown.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and reads its reply, enforcing the
// lockstep protocol: the reply must be wantReply or FrameError. Any
// transport or protocol failure marks the client broken — once the
// stream state is unknown, every later call must fail too.
func (c *Client) roundTrip(req uint32, payload []byte, wantReply uint32) ([]byte, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	fail := func(err error) ([]byte, error) {
		c.broken = fmt.Errorf("wire: worker %s: %w", c.name, err)
		return nil, c.broken
	}
	if err := c.conn.SetDeadline(wallNow().Add(c.timeout)); err != nil {
		return fail(err)
	}
	if err := c.frames.write(c.conn, req, payload); err != nil {
		return fail(err)
	}
	kind, reply, err := c.frames.read(c.conn)
	if err != nil {
		return fail(err)
	}
	if kind == FrameError {
		msg, derr := DecodeError(reply)
		if derr != nil {
			return fail(derr)
		}
		// An application error from the worker: the stream itself stays
		// lockstep, but a failed request means the run is lost anyway.
		c.broken = fmt.Errorf("wire: worker %s: %s", c.name, msg)
		return nil, c.broken
	}
	if kind != wantReply {
		return fail(fmt.Errorf("%w: reply kind %d to request %d, want %d", ErrCorrupt, kind, req, wantReply))
	}
	return reply, nil
}

// Assign ships the sealed recipe and partition to the worker and waits
// for it to finish building. The worker's Ready echo is cross-checked
// against the assignment — a worker that built a different partition is
// an error now, not a divergence later — and returned so the coordinator
// can verify every worker reports the same lookahead (a build skew would
// silently change barrier placement).
func (c *Client) Assign(a Assign) (Ready, error) {
	reply, err := c.roundTrip(FrameAssign, EncodeAssign(a), FrameReady)
	if err != nil {
		return Ready{}, err
	}
	r, err := DecodeReady(reply)
	if err != nil {
		c.broken = fmt.Errorf("wire: worker %s: %w", c.name, err)
		return Ready{}, c.broken
	}
	if len(r.Owned) != len(a.Owned) {
		return Ready{}, fmt.Errorf("wire: worker %s built %d LPs, assigned %d", c.name, len(r.Owned), len(a.Owned))
	}
	for i := range r.Owned {
		if r.Owned[i] != a.Owned[i] {
			return Ready{}, fmt.Errorf("wire: worker %s owns LP %d at slot %d, assigned %d", c.name, r.Owned[i], i, a.Owned[i])
		}
	}
	c.owned = append([]int(nil), r.Owned...)
	return r, nil
}

// OwnedLPs implements shard.Part.
func (c *Client) OwnedLPs() ([]int, error) {
	if c.owned == nil {
		return nil, fmt.Errorf("wire: worker %s: OwnedLPs before Assign", c.name)
	}
	return c.owned, nil
}

// NextEvent implements shard.Part: the worker's barrier proposal.
func (c *Client) NextEvent() (sim.Time, bool, error) {
	reply, err := c.roundTrip(FramePropose, nil, FrameNext)
	if err != nil {
		return 0, false, err
	}
	n, err := DecodeNext(reply)
	if err != nil {
		c.broken = fmt.Errorf("wire: worker %s: %w", c.name, err)
		return 0, false, c.broken
	}
	return n.T, n.Has, nil
}

// RunWindow implements shard.Part: the worker executes the window and
// returns its boundary messages and stats.
func (c *Client) RunWindow(end sim.Time) (shard.WindowResult, error) {
	reply, err := c.roundTrip(FrameWindow, EncodeWindow(end), FrameResult)
	if err != nil {
		return shard.WindowResult{}, err
	}
	r, err := DecodeResult(reply)
	if err != nil {
		c.broken = fmt.Errorf("wire: worker %s: %w", c.name, err)
		return shard.WindowResult{}, c.broken
	}
	return r, nil
}

// Deliver implements shard.Part: partition-bound messages, already in
// global (At, Src, Seq) order.
func (c *Client) Deliver(batch []shard.Msg) error {
	_, err := c.roundTrip(FrameDeliver, EncodeMsgs(batch), FrameDeliverOK)
	return err
}

// States fetches the per-city result records for the worker's owned
// cities, in owned order.
func (c *Client) States() ([]city.CityState, error) {
	reply, err := c.roundTrip(FrameStates, nil, FrameStatesReply)
	if err != nil {
		return nil, err
	}
	states, err := DecodeStates(reply)
	if err != nil {
		c.broken = fmt.Errorf("wire: worker %s: %w", c.name, err)
		return nil, c.broken
	}
	return states, nil
}

// Metrics fetches the worker's metrics registry rendered as Prometheus
// text.
func (c *Client) Metrics() ([]byte, error) {
	reply, err := c.roundTrip(FrameMetrics, nil, FrameMetricsReply)
	if err != nil {
		return nil, err
	}
	b, err := DecodeChunk(reply)
	if err != nil {
		c.broken = fmt.Errorf("wire: worker %s: %w", c.name, err)
		return nil, c.broken
	}
	return b, nil
}

// Trace fetches the worker's merged span trace as JSONL.
func (c *Client) Trace() ([]byte, error) {
	reply, err := c.roundTrip(FrameTrace, nil, FrameTraceReply)
	if err != nil {
		return nil, err
	}
	b, err := DecodeChunk(reply)
	if err != nil {
		c.broken = fmt.Errorf("wire: worker %s: %w", c.name, err)
		return nil, c.broken
	}
	return b, nil
}

// Bye shuts the worker down cleanly and closes the connection. After a
// ByeOK the worker exits 0.
func (c *Client) Bye() error {
	_, err := c.roundTrip(FrameBye, nil, FrameByeOK)
	cerr := c.conn.Close()
	if err != nil {
		return err
	}
	return cerr
}
