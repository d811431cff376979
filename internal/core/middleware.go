package core

import (
	"fmt"

	"df3/internal/network"
	"df3/internal/offload"
	"df3/internal/sched"
	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/units"
	"df3/internal/workload"
)

// Middleware is the DF3 control plane: it owns the clusters, the remote
// datacenter pool and the platform-wide flow statistics.
type Middleware struct {
	Engine *sim.Engine
	Net    *network.Fabric

	cfg      Config
	clusters []*Cluster

	// Datacenter state for vertical offloading and the DCC baseline.
	dcPool *sched.Pool
	dcNode network.NodeID

	// Edge and DCC are the platform-wide flow ledgers.
	Edge EdgeStats
	DCC  DCCStats

	// Tracer, when set, records each edge request and DCC job as a causal
	// span tree (a request or dcc-job root ending served, rejected, done
	// or lost) for offline analysis.
	Tracer *trace.Recorder

	// Content is the content-delivery flow ledger (see content.go).
	Content       ContentStats
	contentOrigin network.NodeID

	nextReqID uint64
	nextJobID uint64

	// legs is the free list of edge-request continuations (see leg);
	// legsMade counts the legs ever made.
	legs     []*leg
	legsMade int
}

// StatsOnly switches every latency and flow-time Sample the middleware
// owns to running statistics only (metrics.Sample.StatsOnly): counts,
// means and extremes stay exact, quantiles read NaN, and memory no longer
// grows with every request settled. Every federation city calls it (no
// federation output reads a quantile, and the live plane takes its
// quantiles from streaming histograms); single-city runs keep exact
// quantiles.
func (mw *Middleware) StatsOnly() {
	mw.Edge.Latency.StatsOnly()
	mw.DCC.JobFlowTime.StatsOnly()
	mw.DCC.JobStretch.StatsOnly()
	mw.Content.Latency.StatsOnly()
}

// completeEdge finalises a served request: stats, deadline check, trace.
// Terminal transitions are idempotent: a retry that raced the original
// copy settles on whichever finished first.
func (mw *Middleware) completeEdge(req *edgeReq) {
	if req.done {
		return
	}
	req.done = true
	mw.disarmTimeout(req)
	latency := mw.Engine.Now() - req.arrival
	mw.Edge.Latency.Observe(latency)
	mw.Edge.Served.Inc()
	if req.deadline != 0 && mw.Engine.Now() > req.deadline {
		mw.Edge.Missed.Inc()
	}
	mw.closeReqSpans(req, "served")
	if req.notify != nil {
		req.notify(EdgeOutcome{
			Served: true, Escalated: req.attempts > 0,
			Attempts: req.attempts, SimLatency: latency,
		})
	}
}

// closeReqSpans ends the queue-wait child (a stale queued copy never runs)
// and the root span of a request reaching a terminal state. An open compute
// span is deliberately left to its own closer — the task's OnDone, or
// loseEdge when the worker died under it — since a stale copy may still be
// computing past the terminal instant. All calls no-op on zero ids, so the
// tracing-off path pays only the field checks.
func (mw *Middleware) closeReqSpans(req *edgeReq, outcome string) {
	now := mw.Engine.Now()
	if req.qspan != 0 {
		mw.Tracer.EndSpanDetail(now, req.qspan, "terminal")
		req.qspan = 0
	}
	if req.span != 0 {
		mw.Tracer.EndSpanDetail(now, req.span, outcome)
		req.span = 0
	}
}

// rejectEdge finalises a dropped request (idempotent, like completeEdge).
func (mw *Middleware) rejectEdge(req *edgeReq) {
	if req.done {
		return
	}
	req.done = true
	mw.disarmTimeout(req)
	mw.Edge.Rejected.Inc()
	mw.closeReqSpans(req, "rejected")
	if req.notify != nil {
		req.notify(EdgeOutcome{
			Escalated: req.attempts > 0, Attempts: req.attempts,
			SimLatency: mw.Engine.Now() - req.arrival,
		})
	}
}

// ---------------------------------------------------------------------------
// Resilience: response timeouts, bounded retries, escalation
// ---------------------------------------------------------------------------

// armTimeout starts (or restarts) the request's response timer.
func (mw *Middleware) armTimeout(req *edgeReq) {
	if mw.cfg.ResponseTimeout <= 0 || req.done {
		return
	}
	if req.timer == nil {
		req.timer = &responseTimer{fire: func() { mw.timeoutEdge(req) }}
	}
	mw.Engine.Cancel(&req.timer.ev)
	mw.Engine.Arm(&req.timer.ev, mw.Engine.Now()+mw.cfg.ResponseTimeout, req.timer.fire)
}

// disarmTimeout cancels the request's response timer.
func (mw *Middleware) disarmTimeout(req *edgeReq) {
	if req.timer != nil {
		mw.Engine.Cancel(&req.timer.ev)
	}
}

// timeoutEdge fires when a request outlived its response timeout: the
// request (wherever its last copy died — a lost message, a failed worker,
// a queue behind a dead gateway) re-enters the decision ladder one rung
// up: local re-decide, then horizontal, then vertical, then reject.
func (mw *Middleware) timeoutEdge(req *edgeReq) {
	if req.done {
		return
	}
	mw.Edge.TimedOut.Inc()
	req.attempts++
	if req.attempts > mw.cfg.EdgeMaxRetries {
		if req.span != 0 {
			mw.Tracer.Instant(mw.Engine.Now(), "timeout", 0, req.span, "budget-exhausted")
		}
		mw.rejectEdge(req)
		return
	}
	mw.Edge.Retries.Inc()
	if req.span != 0 {
		mw.Tracer.Instant(mw.Engine.Now(), "timeout", 0, req.span, "retry")
	}
	mw.armTimeout(req)
	mw.escalate(req)
}

// escalate routes a retried request per its attempt count. Rungs that
// cannot apply (no neighbours, no datacenter) fall through to the queue
// via the forwarders' own fallbacks; the attempt bound still terminates
// the ladder.
func (mw *Middleware) escalate(req *edgeReq) {
	c := req.home
	switch {
	case req.attempts <= 1:
		if req.span != 0 {
			mw.Tracer.Instant(mw.Engine.Now(), "escalate", 0, req.span, "re-decide")
		}
		mw.decide(c, req)
	case req.attempts == 2 && len(c.neighbors) > 0:
		if req.span != 0 {
			mw.Tracer.Instant(mw.Engine.Now(), "escalate", 0, req.span, "horizontal")
		}
		mw.forwardHorizontal(c, req)
	default:
		if req.span != 0 {
			mw.Tracer.Instant(mw.Engine.Now(), "escalate", 0, req.span, "vertical")
		}
		mw.forwardVertical(c, req)
	}
}

// loseEdge handles a request whose message died on the wire: retry from
// the origin within the budget, terminal reject beyond it. Without chaos
// knobs the fabric never drops, so this path is unreachable in the
// deterministic baseline.
func (mw *Middleware) loseEdge(req *edgeReq) {
	if req.cspan != 0 {
		// The request's running copy died with its worker; close the
		// compute span at the failure instant (even for already-terminal
		// requests, whose evacuated copy still owned an open span).
		mw.Tracer.EndSpanDetail(mw.Engine.Now(), req.cspan, "aborted")
		req.cspan = 0
	}
	if req.done {
		return
	}
	req.attempts++
	if req.attempts > mw.cfg.EdgeMaxRetries {
		if req.span != 0 {
			mw.Tracer.Instant(mw.Engine.Now(), "loss", 0, req.span, "budget-exhausted")
		}
		mw.rejectEdge(req)
		return
	}
	mw.Edge.Retries.Inc()
	if req.span != 0 {
		mw.Tracer.Instant(mw.Engine.Now(), "loss", 0, req.span, "retry")
	}
	mw.armTimeout(req)
	mw.resubmit(req)
}

// resubmit re-enters a request from its origin device toward its home
// gateway — the client retransmit of the §III-B middleware story.
func (mw *Middleware) resubmit(req *edgeReq) {
	mw.toGateway(req, req.origin, req.home)
}

// toGateway sends the request's input from `from` to c's edge gateway,
// where it is decided after the gateway's processing delay.
func (mw *Middleware) toGateway(req *edgeReq, from network.NodeID, c *Cluster) {
	l := mw.newLeg(req)
	l.c = c
	l.send(legToGateway, from, c.EdgeGW, req.input)
}

// waitOrReject handles a request that cannot currently reach any service
// point (severed gateway): with a response timer armed it simply waits —
// the timer re-escalates once the outage may have healed — otherwise it is
// rejected on the spot, the fail-fast seed behaviour.
func (mw *Middleware) waitOrReject(req *edgeReq) {
	if req.timer == nil || !req.timer.ev.Scheduled() {
		mw.rejectEdge(req)
	}
}

// New builds a middleware with the given configuration. Defaults are
// applied for zero-valued policy fields.
func New(e *sim.Engine, net *network.Fabric, cfg Config) *Middleware {
	if cfg.Offload == nil {
		cfg.Offload = offload.Smart{}
	}
	return &Middleware{Engine: e, Net: net, cfg: cfg}
}

// Config returns the middleware configuration.
func (mw *Middleware) Config() Config { return mw.cfg }

// Clusters returns the registered clusters.
func (mw *Middleware) Clusters() []*Cluster { return mw.clusters }

// AddCluster registers a cluster of workers fronted by the two gateways.
// Under the Dedicated architecture the first Config.DedicatedEdgeWorkers
// workers are reserved for edge traffic.
func (mw *Middleware) AddCluster(edgeGW, dccGW network.NodeID, workers []*Worker) *Cluster {
	c := &Cluster{
		ID:     len(mw.clusters),
		EdgeGW: edgeGW,
		DCCGW:  dccGW,
		edgeQ:  sched.NewQueue(mw.cfg.EdgePolicy),
		dccQ:   sched.NewQueue(mw.cfg.DCCPolicy),
		mw:     mw,
	}
	for i, w := range workers {
		if mw.cfg.Arch == Dedicated && i < mw.cfg.DedicatedEdgeWorkers {
			w.EdgeOnly = true
		}
		c.workers = append(c.workers, w)
		w.M.OnCapacity(c.dispatch)
	}
	mw.clusters = append(mw.clusters, c)
	return c
}

// Peer links clusters for horizontal offloading (one direction; call twice
// or use PeerAll for symmetry).
func (mw *Middleware) Peer(a, b *Cluster) { a.neighbors = append(a.neighbors, b) }

// PeerAll makes every pair of clusters mutual neighbours.
func (mw *Middleware) PeerAll() {
	for _, a := range mw.clusters {
		for _, b := range mw.clusters {
			if a != b {
				a.neighbors = append(a.neighbors, b)
			}
		}
	}
}

// SetDatacenter installs the remote datacenter: a pool of machines behind
// the given network node, targets of vertical offloading.
func (mw *Middleware) SetDatacenter(node network.NodeID, machines []*server.Machine) {
	mw.dcNode = node
	mw.dcPool = sched.NewPool(mw.Engine, sched.EDF, machines)
	mw.dcPool.Placement = sched.FastestFirst
}

// DatacenterPool returns the datacenter pool (nil when not configured).
func (mw *Middleware) DatacenterPool() *sched.Pool { return mw.dcPool }

// gwLatency returns the one-way gateway-to-gateway latency between two
// clusters.
func (mw *Middleware) gwLatency(a, b *Cluster) sim.Time {
	l := mw.Net.PathLatency(a.EdgeGW, b.EdgeGW)
	if l < 0 {
		return 1e9 // unreachable: make any slack comparison fail
	}
	return l
}

// dcLatency returns the one-way latency from a cluster to the datacenter.
func (mw *Middleware) dcLatency(c *Cluster) sim.Time {
	if mw.dcPool == nil {
		return 1e9
	}
	l := mw.Net.PathLatency(c.EdgeGW, mw.dcNode)
	if l < 0 {
		return 1e9
	}
	return l
}

// ---------------------------------------------------------------------------
// Edge flow
// ---------------------------------------------------------------------------

// SubmitEdge injects an indirect local request: the device at `device`
// sends it to the cluster's edge gateway, which decides per the offload
// policy. This is the paper's recommended (more secure) path.
func (mw *Middleware) SubmitEdge(c *Cluster, device network.NodeID, r workload.EdgeRequest) {
	mw.SubmitEdgeOutcome(c, device, r, nil)
}

// SubmitEdgeOutcome is SubmitEdge with a terminal-outcome callback: notify
// fires exactly once, at the simulated instant the request settles (served
// or rejected). A nil notify makes it identical to SubmitEdge — the
// callback is pure observation and must not mutate middleware state. The
// serving front end (internal/api live mode) answers HTTP clients with it.
func (mw *Middleware) SubmitEdgeOutcome(c *Cluster, device network.NodeID, r workload.EdgeRequest, notify func(EdgeOutcome)) {
	mw.nextReqID++
	req := &edgeReq{
		id:      mw.nextReqID,
		origin:  device,
		work:    r.Work,
		input:   r.Input,
		output:  r.Output,
		arrival: mw.Engine.Now(),
		home:    c,
		notify:  notify,
	}
	if r.Deadline > 0 {
		req.deadline = mw.Engine.Now() + r.Deadline
	}
	mw.Edge.Submitted.Inc()
	req.span = mw.Tracer.BeginSpan(mw.Engine.Now(), "request", req.id, 0)
	mw.armTimeout(req)
	// Device → gateway transfer, then the gateway's processing delay,
	// then decide.
	mw.toGateway(req, device, c)
}

// SubmitEdgeDirect injects a direct local request to a pinned worker (the
// DF server in the device's own room). If the worker cannot run it, the
// request falls back to the indirect path and the fallback is counted —
// the security/latency trade-off of §II-C in measurable form.
func (mw *Middleware) SubmitEdgeDirect(c *Cluster, device network.NodeID, w *Worker, r workload.EdgeRequest) {
	mw.nextReqID++
	req := &edgeReq{
		id:      mw.nextReqID,
		origin:  device,
		work:    r.Work,
		input:   r.Input,
		output:  r.Output,
		arrival: mw.Engine.Now(),
		home:    c,
	}
	if r.Deadline > 0 {
		req.deadline = mw.Engine.Now() + r.Deadline
	}
	mw.Edge.Submitted.Inc()
	req.span = mw.Tracer.BeginSpan(mw.Engine.Now(), "request", req.id, 0)
	mw.armTimeout(req)
	l := mw.newLeg(req)
	l.c, l.w = c, w
	l.send(legToPinned, device, w.Node, req.input)
}

// decide applies the offload policy to a request sitting at c's gateway.
func (mw *Middleware) decide(c *Cluster, req *edgeReq) {
	ctx := c.offloadContext(req)
	verdict := mw.cfg.Offload.Decide(ctx)
	if req.span != 0 {
		mw.Tracer.Instant(mw.Engine.Now(), "decide", 0, req.span, verdict.String())
	}
	switch verdict {
	case offload.Run:
		w := c.pickEdgeWorker()
		if w == nil {
			// Raced with another arrival; queue instead.
			mw.enqueueEdge(c, req)
			return
		}
		mw.runEdgeOn(c, w, req)
	case offload.Queue:
		mw.enqueueEdge(c, req)
	case offload.Preempt:
		mw.preemptFor(c, req)
	case offload.Horizontal:
		mw.forwardHorizontal(c, req)
	case offload.Vertical:
		mw.forwardVertical(c, req)
	default: // Reject
		mw.rejectEdge(req)
	}
}

// enqueueEdge pushes the request into c's edge queue. A request already
// waiting in some queue is not duplicated: the retry settles on the
// existing copy.
func (mw *Middleware) enqueueEdge(c *Cluster, req *edgeReq) {
	if req.queued || req.done {
		return
	}
	req.queued = true
	if req.span != 0 && req.qspan == 0 {
		req.qspan = mw.Tracer.BeginSpan(mw.Engine.Now(), "queue", 0, req.span)
	}
	// The queue discipline needs a task handle for SJF sizing.
	t := &server.Task{ID: req.id, Work: req.work, Class: classEdge}
	c.edgeQ.Push(&sched.Item{Task: t, Enqueued: mw.Engine.Now(), Deadline: req.deadline, Ctx: req})
}

// runEdgeOn reserves a slot on w and ships the input (indirect route).
func (mw *Middleware) runEdgeOn(c *Cluster, w *Worker, req *edgeReq) {
	w.reserved++
	mw.shipEdge(c, w, req)
}

// shipEdge transfers the input to a worker whose slot is already reserved,
// then executes. The reservation is released when the input lands (or dies
// on the wire).
func (mw *Middleware) shipEdge(c *Cluster, w *Worker, req *edgeReq) {
	l := mw.newLeg(req)
	l.c, l.w = c, w
	l.send(legToWorker, c.EdgeGW, w.Node, req.input)
}

// execute runs the request on the worker and routes the response back to
// the origin via `via` (gateway for indirect, worker-direct otherwise).
func (mw *Middleware) execute(w *Worker, req *edgeReq, via network.NodeID) {
	l := mw.newLeg(req)
	l.w, l.from, l.via = w, w.Node, via
	l.cspan = mw.Tracer.BeginSpan(mw.Engine.Now(), "compute", 0, req.span)
	req.cspan = l.cspan
	l.start()
	if !w.M.Start(&l.task) {
		panic(fmt.Sprintf("core: execute on full worker %s", w.M.Name))
	}
}

// preemptFor evicts a DCC task and runs the request in its place; the
// victim returns to the DCC queue with its remaining work.
func (mw *Middleware) preemptFor(c *Cluster, req *edgeReq) {
	w, victim := c.victim()
	if victim == nil {
		mw.enqueueEdge(c, req)
		return
	}
	// Reserve the slot before evicting: Preempt fires the machine's
	// capacity callback synchronously, and dispatch must not hand the
	// freed slot to queued DCC work meant to be displaced.
	w.reserved++
	w.M.Preempt(victim)
	mw.Edge.Preemptions.Inc()
	c.dccQ.Push(&sched.Item{Task: victim, Enqueued: mw.Engine.Now(), Ctx: nil})
	mw.shipEdge(c, w, req)
	// A DCC worker elsewhere in the cluster may be free for the victim.
	c.dispatch()
}

// forwardHorizontal ships the request to the best neighbour's gateway:
// most free slots, debt cap respected, ties broken toward the neighbour
// owing the most cooperation.
func (mw *Middleware) forwardHorizontal(c *Cluster, req *edgeReq) {
	var best *Cluster
	for _, n := range c.neighbors {
		if mw.cfg.CoopDebtLimit > 0 && n.CoopDebt() >= mw.cfg.CoopDebtLimit {
			continue // n already works enough for others ([16])
		}
		if best == nil ||
			n.freeEdgeSlots() > best.freeEdgeSlots() ||
			(n.freeEdgeSlots() == best.freeEdgeSlots() && n.CoopDebt() < best.CoopDebt()) {
			best = n
		}
	}
	if best == nil {
		mw.enqueueEdge(c, req)
		return
	}
	mw.Edge.Horizontal.Inc()
	c.fwdOut++
	best.fwdIn++
	req.fwd = true
	// Responses will flow back through the remote gateway; the origin
	// stays the device, so the path is worker → remote GW → device.
	mw.toGateway(req, c.EdgeGW, best)
}

// forwardVertical ships the request to the datacenter.
func (mw *Middleware) forwardVertical(c *Cluster, req *edgeReq) {
	if mw.dcPool == nil {
		mw.enqueueEdge(c, req)
		return
	}
	mw.Edge.Vertical.Inc()
	// The task runs in the datacenter; its response returns through c's
	// gateway to the device.
	l := mw.newLeg(req)
	l.from, l.via = mw.dcNode, c.EdgeGW
	l.send(legToDatacenter, c.EdgeGW, mw.dcNode, req.input)
}

// ---------------------------------------------------------------------------
// DCC flow
// ---------------------------------------------------------------------------

// SubmitDCC injects an Internet batch job at a cluster's DCC gateway from
// the operator node. Tasks queue FCFS behind the cluster's batch queue and
// the job completes when its last task does.
func (mw *Middleware) SubmitDCC(c *Cluster, operator network.NodeID, job workload.BatchJob) {
	mw.SubmitDCCNotify(c, operator, job, nil)
}

// SubmitDCCNotify is SubmitDCC with a completion callback, for workloads
// with job-level deadlines (e.g. the overnight finance batches).
func (mw *Middleware) SubmitDCCNotify(c *Cluster, operator network.NodeID, job workload.BatchJob, onDone func(at sim.Time)) {
	mw.submitDCC(c, operator, job, onDone, nil)
}

// SubmitDCCOutcome is SubmitDCC with a terminal-outcome callback: result
// fires exactly once, when the job completes or is lost past the retry
// budget. A nil result makes it identical to SubmitDCC; an empty job
// reports immediately as done with zero tasks. Pure observation, like
// SubmitEdgeOutcome.
func (mw *Middleware) SubmitDCCOutcome(c *Cluster, operator network.NodeID, job workload.BatchJob, result func(DCCOutcome)) {
	mw.submitDCC(c, operator, job, nil, result)
}

func (mw *Middleware) submitDCC(c *Cluster, operator network.NodeID, job workload.BatchJob, onDone func(at sim.Time), result func(DCCOutcome)) {
	mw.nextJobID++
	j := &dccJob{
		id:      mw.nextJobID,
		arrival: mw.Engine.Now(),
		pending: len(job.TaskWork),
		tasks:   len(job.TaskWork),
		cluster: c,
		onDone:  onDone,
		result:  result,
	}
	for _, w := range job.TaskWork {
		if w > j.ideal {
			j.ideal = w
		}
	}
	if j.pending == 0 {
		if j.result != nil {
			j.result(DCCOutcome{Done: true})
		}
		return
	}
	mw.DCC.JobsSubmitted.Inc()
	j.span = mw.Tracer.BeginSpan(mw.Engine.Now(), "dcc-job", dccTraceBit|j.id, 0)
	// One input transfer operator → gateway for the job payload, then
	// tasks enter the queue. A payload that cannot reach the gateway (no
	// route, or lost on the wire under chaos) is retried with exponential
	// backoff up to DCCMaxRetries; past the budget the job is lost — but
	// counted, and its completion callback still fires, so deadline
	// workloads observe the failure instead of hanging.
	size := job.Input * units.Byte(len(job.TaskWork))
	deliver := func(sim.Time) {
		for i, w := range job.TaskWork {
			work := w // original size; Task.Work mutates on preemption
			t := &server.Task{ID: job.ID*1_000_000 + uint64(i), Work: w, Class: classDCC}
			t.OnDone = func(at sim.Time) { mw.dccTaskDone(j, work) }
			c.dccQ.Push(&sched.Item{Task: t, Enqueued: mw.Engine.Now(), Ctx: j})
		}
		c.dispatch()
	}
	lose := func() {
		mw.DCC.JobsLost.Inc()
		j.pending = 0
		if j.span != 0 {
			mw.Tracer.EndSpanDetail(mw.Engine.Now(), j.span, "lost")
			j.span = 0
		}
		if j.onDone != nil {
			j.onDone(mw.Engine.Now())
		}
		if j.result != nil {
			j.result(DCCOutcome{Tasks: j.tasks, SimLatency: mw.Engine.Now() - j.arrival})
		}
	}
	var attempt func(n int)
	attempt = func(n int) {
		retry := func() {
			if n >= mw.cfg.DCCMaxRetries {
				lose()
				return
			}
			mw.DCC.SubmitRetries.Inc()
			if j.span != 0 {
				mw.Tracer.Instant(mw.Engine.Now(), "dcc-retry", 0, j.span, "")
			}
			backoff := mw.cfg.DCCRetryBackoff * sim.Time(int64(1)<<uint(n))
			mw.Engine.AfterTransient(backoff, func() { attempt(n + 1) })
		}
		if !mw.Net.SendTraced(operator, c.DCCGW, size, j.span, deliver, func() { retry() }) {
			retry()
		}
	}
	attempt(0)
}

// dccTaskDone advances the owning job; completed work is credited even for
// tasks that were preempted and resumed elsewhere.
func (mw *Middleware) dccTaskDone(j *dccJob, work float64) {
	mw.DCC.TasksDone.Inc()
	mw.DCC.WorkDone += work
	j.pending--
	if j.span != 0 {
		mw.Tracer.Instant(mw.Engine.Now(), "dcc-task", 0, j.span, "")
	}
	if j.pending == 0 {
		flow := mw.Engine.Now() - j.arrival
		mw.DCC.JobFlowTime.Observe(flow)
		ideal := j.ideal
		if ideal < 1 {
			ideal = 1
		}
		mw.DCC.JobStretch.Observe(flow / ideal)
		mw.DCC.JobsDone.Inc()
		if j.span != 0 {
			mw.Tracer.EndSpanDetail(mw.Engine.Now(), j.span, "done")
			j.span = 0
		}
		if j.onDone != nil {
			j.onDone(mw.Engine.Now())
		}
		if j.result != nil {
			j.result(DCCOutcome{Done: true, Tasks: j.tasks, SimLatency: flow})
		}
	}
}

// Dispatch forces a dispatch pass on every cluster (used after bulk
// submissions in tests and scenario setup).
func (mw *Middleware) Dispatch() {
	for _, c := range mw.clusters {
		c.dispatch()
	}
}
