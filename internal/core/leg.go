package core

import (
	"df3/internal/network"
	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/units"
)

// leg is one in-flight continuation of an edge request: a message on the
// fabric, the gateway's processing delay, or the request's task. A leg
// comes from the middleware's free list when the continuation is armed,
// carries the request through as many steps as that continuation takes,
// and goes back to the list exactly once, with every reference cleared,
// before the continuation that re-enters the ladder runs (decide,
// execute, loseEdge, completeEdge or waitOrReject: each may take a leg
// again). Its callbacks are bound once, when the record is made, and its
// task is embedded and reused, so arming a continuation allocates
// nothing. A leg whose task FailWorker evacuates is never returned: the
// request goes on through loseEdge and the GC takes the leg.
type leg struct {
	mw   *Middleware
	step legStep
	req  *edgeReq
	// c is the cluster whose gateway a legToGateway input is decided at,
	// and the cluster a shipped or pinned input belongs to. w is the
	// worker an input travels to or the task runs on; nil in the
	// datacenter.
	c *Cluster
	w *Worker
	// from is the node the task runs on and via the gateway its response
	// returns through; via == from answers the device straight away.
	from, via network.NodeID
	cspan     trace.SpanID // the task's compute span; 0 when untraced
	task      server.Task

	// onDeliver, onLost and onFire are delivered, lost and fire bound to
	// this leg, and task.OnDone is done.
	onDeliver func(at sim.Time)
	onLost    func()
	onFire    func()
}

// legStep is what a leg does when its message lands.
type legStep uint8

const (
	// legToGateway carries an input to c's edge gateway, then waits out
	// GatewayOverhead and decides there.
	legToGateway legStep = iota
	// legToPinned carries a direct request's input to its pinned worker w.
	legToPinned
	// legToWorker carries an input to w, where a slot is reserved for it.
	legToWorker
	// legToDatacenter carries an input to the datacenter, where its task
	// queues.
	legToDatacenter
	// legToVia carries a response to the gateway it returns through.
	legToVia
	// legToDevice carries a response to the origin device: the request is
	// served on delivery.
	legToDevice
)

// newLeg takes a leg for req from the free list, or makes one.
func (mw *Middleware) newLeg(req *edgeReq) *leg {
	var l *leg
	if n := len(mw.legs); n > 0 {
		l = mw.legs[n-1]
		mw.legs = mw.legs[:n-1]
	} else {
		l = &leg{mw: mw}
		l.onDeliver, l.onLost, l.onFire = l.delivered, l.lost, l.fire
		l.task.Class = classEdge
		l.task.OnDone = l.done
		mw.legsMade++
	}
	l.req = req
	return l
}

// release returns l to the free list. A listed leg holds no request,
// cluster, worker or task context, so it keeps nothing of a settled
// request alive.
func (l *leg) release() {
	l.req, l.c, l.w, l.task.Ctx = nil, nil, nil, nil
	l.cspan = 0
	l.mw.legs = append(l.mw.legs, l)
}

// send ships l's message and sets the step its delivery runs. When the
// fabric refuses it, l is released, a slot reserved for the input is
// given back, and the request waits for its timer or is rejected.
func (l *leg) send(step legStep, from, to network.NodeID, size units.Byte) {
	l.step = step
	if l.mw.Net.SendTraced(from, to, size, l.req.span, l.onDeliver, l.onLost) {
		return
	}
	mw, req, w := l.mw, l.req, l.w
	l.release()
	if step == legToWorker {
		w.reserved--
	}
	mw.waitOrReject(req)
}

// start readies l's task to run the request's work.
func (l *leg) start() {
	l.task.ID, l.task.Work, l.task.Ctx = l.req.id, l.req.work, l.req
}

// delivered moves the request on when l's message lands.
func (l *leg) delivered(sim.Time) {
	mw, req, c, w := l.mw, l.req, l.c, l.w
	switch l.step {
	case legToGateway:
		mw.Engine.AfterTransient(mw.cfg.GatewayOverhead, l.onFire)
	case legToPinned:
		if !w.M.Offline() && w.FreeSlots() > 0 {
			l.release()
			mw.execute(w, req, w.Node) // respond straight to the device
			return
		}
		mw.Edge.DirectFallbacks.Inc()
		if req.span != 0 {
			mw.Tracer.Instant(mw.Engine.Now(), "direct-fallback", 0, req.span, "")
		}
		// Forward from the worker to the gateway and decide there.
		l.send(legToGateway, w.Node, c.EdgeGW, req.input)
	case legToWorker:
		l.release()
		w.reserved--
		if req.done {
			return
		}
		if !w.M.Offline() && w.M.FreeSlots() > 0 {
			mw.execute(w, req, c.EdgeGW)
			return
		}
		// The slot vanished while the input was in flight (another start,
		// or the worker failed under us); re-decide.
		mw.decide(c, req)
	case legToDatacenter:
		if req.done {
			l.release()
			return
		}
		l.cspan = mw.Tracer.BeginSpan(mw.Engine.Now(), "compute", 0, req.span)
		req.cspan = l.cspan
		l.start()
		mw.dcPool.Submit(&l.task, req.deadline, nil)
	case legToVia:
		l.send(legToDevice, l.via, req.origin, req.output)
	case legToDevice:
		l.release()
		mw.completeEdge(req)
	}
}

// lost re-enters the retry ladder when l's message dies on the wire. An
// input bound for a reserved slot gives the slot back first.
func (l *leg) lost() {
	mw, req, w, step := l.mw, l.req, l.w, l.step
	l.release()
	if step == legToWorker {
		w.reserved--
		if req.done {
			return
		}
	}
	mw.loseEdge(req)
}

// fire ends the gateway's processing delay: the request is decided at c.
func (l *leg) fire() {
	mw, c, req := l.mw, l.c, l.req
	l.release()
	mw.decide(c, req)
}

// done closes the compute span when l's task completes and sends the
// response back: through the gateway via, or straight to the device when
// via is the node that ran the task. A lost response re-enters the retry
// ladder like any other wire loss: the work is redone, which is the
// at-least-once semantics a client retransmit gives you.
func (l *leg) done(at sim.Time) {
	mw, req := l.mw, l.req
	if l.cspan != 0 {
		where := "datacenter"
		if l.w != nil {
			where = l.w.M.Name
		}
		mw.Tracer.EndSpanDetail(at, l.cspan, where)
		if req.cspan == l.cspan {
			req.cspan = 0
		}
		l.cspan = 0
	}
	if l.via == l.from {
		l.send(legToDevice, l.from, req.origin, req.output)
		return
	}
	l.send(legToVia, l.from, l.via, req.output)
}
