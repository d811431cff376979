package main

import (
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"df3/internal/shard"
	"df3/internal/sim"
)

// Observing wrappers for the traced run. Each forwards every call
// unchanged and only records what it saw, so a traced run computes the
// same results as an untraced one.

// partProbe decorates a shard.Part (a wire.Client in fed-wire) with a
// span per call, under the span of the run the calls belong to.
type partProbe struct {
	shard.Part
	tr     *tracer
	parent int64
}

// Span names of the Part calls that cross the wire: NextEvent and
// Deliver run no simulation, so they time the bare round trip, while
// RunWindow includes the worker's simulation of the window.
const (
	spanNextEvent = "wire.NextEvent"
	spanRunWindow = "wire.RunWindow"
	spanDeliver   = "wire.Deliver"
)

func (p *partProbe) NextEvent() (sim.Time, bool, error) {
	defer p.tr.end(p.tr.begin(spanNextEvent, p.parent))
	return p.Part.NextEvent()
}

func (p *partProbe) RunWindow(end sim.Time) (shard.WindowResult, error) {
	defer p.tr.end(p.tr.begin(spanRunWindow, p.parent))
	return p.Part.RunWindow(end)
}

func (p *partProbe) Deliver(batch []shard.Msg) error {
	defer p.tr.end(p.tr.begin(spanDeliver, p.parent))
	return p.Part.Deliver(batch)
}

// countingConn counts the bytes a client connection moves in both
// directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// workerClock accumulates a wire worker's busy and wait time from the
// moment from is set (Unix ns; 0 = not measuring). Wait is time blocked
// in Read; busy is time from the last Read or Write returning to a Write
// returning, i.e. from reading a request to writing its reply.
type workerClock struct {
	from atomic.Int64
	busy atomic.Int64
	wait atomic.Int64
}

// clip returns the part of [t0, t1] after w.from, in ns.
func (w *workerClock) clip(t0, t1 time.Time) int64 {
	from := w.from.Load()
	if from == 0 {
		return 0
	}
	s := max(t0.UnixNano(), from)
	return max(t1.UnixNano()-s, 0)
}

// workerConn is the server side of a wire session, handed to wire.Serve.
// Only the Serve goroutine calls Read and Write, so mark needs no lock.
type workerConn struct {
	net.Conn
	clk  *workerClock
	mark time.Time
}

func (c *workerConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	t1 := time.Now()
	c.clk.wait.Add(c.clk.clip(t0, t1))
	c.mark = t1
	return n, err
}

func (c *workerConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	t1 := time.Now()
	if !c.mark.IsZero() {
		c.clk.busy.Add(c.clk.clip(c.mark, t1))
	}
	c.mark = t1
	return n, err
}

// spanHeader carries the client's operation span to the server side, so
// handler spans join the batch that caused them.
const spanHeader = "X-Perfbench-Span"

// Span names of the handler calls the probe times.
const (
	spanHandler = "api.handler"
	spanScrape  = "metrics.scrape"
)

// handlerProbe opens a span for every request that carries spanHeader,
// named by route. The request and response pass through untouched;
// untagged requests go straight to the wrapped handler.
type handlerProbe struct {
	next http.Handler
	tr   *tracer
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag := r.Header.Get(spanHeader)
	if tag == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	// A malformed tag reads as 0, so the call starts its own operation.
	parent, _ := strconv.ParseInt(tag, 10, 64)
	name := spanHandler
	if r.URL.Path == "/metrics" {
		name = spanScrape
	}
	defer h.tr.end(h.tr.begin(name, parent))
	h.next.ServeHTTP(w, r)
}
