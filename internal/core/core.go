// Package core implements the DF3 middleware — the paper's contribution:
// one platform serving the three flows of §II-C (heating requests, Internet
// distributed-cloud-computing requests, and local edge requests, direct or
// indirect) on the same fleet of data-furnace servers.
//
// The component architecture follows Fig. 5: clusters of worker machines
// fronted by an edge gateway and a DCC gateway, a regulation system
// (package regulator) throttling each worker to its host's heat demand, a
// remote datacenter for vertical offloading, and metro links between
// clusters for horizontal offloading. Both §III-B architecture classes are
// implemented: class 1 shares every worker between edge and DCC; class 2
// dedicates a worker subset to edge traffic.
package core

import (
	"df3/internal/metrics"
	"df3/internal/network"
	"df3/internal/offload"
	"df3/internal/sched"
	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/units"
)

// Task classes, used for preemption victim selection on shared workers.
const (
	classEdge = 1
	classDCC  = 2
)

// ArchClass selects the §III-B architecture.
type ArchClass int

const (
	// Shared lets every worker serve both edge and DCC (class 1).
	Shared ArchClass = iota
	// Dedicated reserves a fixed subset of workers for edge (class 2).
	Dedicated
)

func (a ArchClass) String() string {
	if a == Dedicated {
		return "dedicated"
	}
	return "shared"
}

// Config parameterises the middleware.
type Config struct {
	// Arch selects shared or dedicated workers.
	Arch ArchClass
	// DedicatedEdgeWorkers is the per-cluster count of workers reserved
	// for edge when Arch == Dedicated.
	DedicatedEdgeWorkers int
	// Offload is the peak-management policy.
	Offload offload.Policy
	// EdgeQueueCap bounds each cluster's edge queue (0 = unbounded).
	EdgeQueueCap int
	// EdgePolicy is the edge queue discipline (EDF by default).
	EdgePolicy sched.Policy
	// DCCPolicy is the batch queue discipline (FCFS by default).
	DCCPolicy sched.Policy
	// DropExpired discards queued edge requests whose deadline already
	// passed instead of wasting a worker slot on them.
	DropExpired bool
	// GatewayOverhead is the middleware processing delay added when a
	// request traverses a gateway (decision, container routing). Direct
	// requests skip it — the latency side of the §II-C direct/indirect
	// trade-off.
	GatewayOverhead sim.Time
	// CoopDebtLimit caps a neighbour's cooperation debt (accepted minus
	// sent horizontal requests): a cluster that is already this many
	// requests in surplus refuses further forwards, the fairness control
	// of [16]. Zero means unlimited cooperation.
	CoopDebtLimit int64
	// ResponseTimeout, when positive, arms a per-request timer at
	// submission (and on every retry): an edge request not served by then
	// re-enters the decision ladder with escalation — local re-decide,
	// then horizontal, then vertical, then reject. Zero disables the
	// timer, reproducing the fail-fast seed behaviour exactly.
	ResponseTimeout sim.Time
	// EdgeMaxRetries bounds how many times a timed-out or wire-lost edge
	// request is retried before it is terminally rejected. Zero means a
	// single attempt (any loss or timeout rejects immediately).
	EdgeMaxRetries int
	// DCCMaxRetries bounds re-submissions of a DCC job payload whose
	// transfer to the gateway failed (unreachable or lost on the wire).
	// Zero means a failed submission loses the job (counted in
	// DCC.JobsLost, with the completion callback still fired).
	DCCMaxRetries int
	// DCCRetryBackoff is the base of the exponential backoff between DCC
	// submission attempts: attempt n waits backoff·2ⁿ.
	DCCRetryBackoff sim.Time
}

// DefaultConfig is the reference configuration: shared workers, smart
// offloading, EDF edge queueing with a cap of 64, expired requests dropped.
func DefaultConfig() Config {
	return Config{
		Arch:            Shared,
		Offload:         offload.Smart{},
		EdgeQueueCap:    64,
		EdgePolicy:      sched.EDF,
		DCCPolicy:       sched.FCFS,
		DropExpired:     true,
		GatewayOverhead: 0.003,
	}
}

// Worker binds a machine to its network attachment point.
type Worker struct {
	M *server.Machine
	// Node is the worker's network endpoint (its room on the building LAN).
	Node network.NodeID
	// EdgeOnly marks workers reserved for edge traffic under Dedicated.
	EdgeOnly bool
	// reserved counts slots promised to edge inputs still on the wire, so
	// the dispatcher does not hand the same slot to DCC work meanwhile.
	reserved int
}

// FreeSlots returns the worker's startable slots net of reservations.
func (w *Worker) FreeSlots() int {
	n := w.M.FreeSlots() - w.reserved
	if n < 0 {
		return 0
	}
	return n
}

// EdgeStats aggregates the edge flow's outcome metrics.
type EdgeStats struct {
	// Latency samples end-to-end response times of served requests.
	Latency metrics.Sample
	// Submitted counts every request injected at the platform edge. The
	// conservation invariant is Submitted == Served + Rejected once the
	// platform drains — nothing silent, even under network chaos.
	Submitted metrics.Counter
	// Served counts requests completed (regardless of deadline).
	Served metrics.Counter
	// Missed counts served requests that finished past their deadline.
	Missed metrics.Counter
	// Rejected counts requests dropped by policy, expiry, network
	// unreachability or retry-budget exhaustion.
	Rejected metrics.Counter
	// Preemptions, Horizontal, Vertical count offload actions taken.
	Preemptions, Horizontal, Vertical metrics.Counter
	// DirectFallbacks counts direct requests that fell back to the
	// gateway because the pinned worker was unavailable.
	DirectFallbacks metrics.Counter
	// Retries counts re-submissions after a timeout or wire loss.
	Retries metrics.Counter
	// TimedOut counts ResponseTimeout expiries (a request may time out
	// several times as it climbs the escalation ladder).
	TimedOut metrics.Counter
}

// Arrived returns the total number of edge requests seen.
func (s *EdgeStats) Arrived() int64 {
	return s.Served.Value() + s.Rejected.Value()
}

// MissRate returns (missed + rejected) / arrived — the deadline-failure
// probability an application would observe.
func (s *EdgeStats) MissRate() float64 {
	return metrics.Rate(s.Missed.Value()+s.Rejected.Value(), s.Arrived())
}

// DCCStats aggregates the batch flow's outcome metrics.
type DCCStats struct {
	// JobFlowTime samples per-job flow times (completion − arrival).
	JobFlowTime metrics.Sample
	// JobStretch samples flow time / ideal time, where ideal is the
	// job's critical path (its largest task) at full speed.
	JobStretch metrics.Sample
	// TasksDone counts completed tasks.
	TasksDone metrics.Counter
	// JobsDone counts completed jobs.
	JobsDone metrics.Counter
	// JobsSubmitted counts non-empty jobs injected at the platform. The
	// conservation invariant is JobsSubmitted == JobsDone + JobsLost once
	// the platform drains.
	JobsSubmitted metrics.Counter
	// JobsLost counts jobs whose payload never reached a gateway after
	// exhausting the retry budget. Their completion callback fires (so
	// deadline workloads observe the failure) but no work is credited.
	JobsLost metrics.Counter
	// SubmitRetries counts payload re-submissions on the backoff ladder.
	SubmitRetries metrics.Counter
	// WorkDone accumulates completed core-seconds.
	WorkDone float64
}

// Throughput returns completed core-seconds per second of simulated time.
func (s *DCCStats) Throughput(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return s.WorkDone / elapsed
}

// EdgeOutcome is the terminal fate of one edge request, reported to the
// submitter's callback — what a serving front end answers a real client
// with. Exactly one outcome fires per request (terminal transitions are
// idempotent), at the simulated instant the request settled.
type EdgeOutcome struct {
	// Served reports completion; false means terminally rejected (policy,
	// expiry, unreachability or retry-budget exhaustion).
	Served bool
	// Escalated reports that the request climbed the retry/escalation
	// ladder (timed out or was lost at least once) before settling.
	Escalated bool
	// Attempts is the number of timeouts and wire losses consumed.
	Attempts int
	// SimLatency is terminal time minus first platform arrival.
	SimLatency sim.Time
}

// DCCOutcome is the terminal fate of one batch job.
type DCCOutcome struct {
	// Done reports completion; false means the job was lost (its payload
	// never reached a gateway within the retry budget).
	Done bool
	// Tasks is the number of tasks the job carried.
	Tasks int
	// SimLatency is the job flow time (completion minus arrival).
	SimLatency sim.Time
}

// edgeReq is the in-flight state of one edge request.
type edgeReq struct {
	id       uint64
	origin   network.NodeID // where the response must return to
	work     float64
	deadline sim.Time // absolute; 0 = none
	input    units.Byte
	output   units.Byte
	arrival  sim.Time // first arrival at the platform edge
	fwd      bool     // already took a horizontal hop
	home     *Cluster // cluster that first received it (stats owner)
	// done marks the request terminal (served or rejected). Retries can
	// leave stale copies in queues or on the wire; the first terminal
	// transition wins and every later one is ignored, which is what keeps
	// Submitted == Served + Rejected exact.
	done bool
	// queued guards against the same request occupying two queue slots
	// when a retry races a still-enqueued copy.
	queued bool
	// attempts counts timeouts and wire losses consumed so far; it drives
	// the escalation ladder and is bounded by EdgeMaxRetries.
	attempts int
	// timer is the response timeout, made on the first arm and re-armed
	// on every retry; nil while the request was never timed.
	timer *responseTimer
	// notify, when set, receives the request's terminal outcome — the
	// serving path's per-request answer. Pure observation: it must not
	// mutate middleware state.
	notify func(EdgeOutcome)
	// span is the request's root trace span (0 when tracing is off), qspan
	// the currently open queue-wait child and cspan the currently open
	// compute child — kept on the request so abort paths (worker failure,
	// stale queue pops) can close them.
	span, qspan, cspan trace.SpanID
}

// responseTimer is a request's response timeout: the Event armed
// (Engine.Arm) at submission and on every retry and cancelled on
// terminal, and its callback, bound once. It lives outside edgeReq so an
// untimed request does not carry it.
type responseTimer struct {
	ev   sim.Event
	fire func()
}

// dccJob is the in-flight state of one batch job.
type dccJob struct {
	id      uint64
	arrival sim.Time
	ideal   float64 // critical path in core-seconds at full speed
	pending int
	tasks   int
	cluster *Cluster
	onDone  func(at sim.Time)
	// result, when set, receives the job's terminal outcome (done or
	// lost) — the serving path's per-job answer. Pure observation.
	result func(DCCOutcome)
	span   trace.SpanID // root job span (0 when tracing is off)
}

// dccTraceBit offsets DCC job ids into their own trace-id space so job
// traces never collide with edge request traces in an exported timeline.
const dccTraceBit = uint64(1) << 40
