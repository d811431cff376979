package core

import (
	"testing"

	"df3/internal/offload"
	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/workload"
)

// roots returns the completed root spans of one stage.
func roots(rec *trace.Recorder, stage string) []trace.Span {
	var out []trace.Span
	for _, sp := range rec.Spans() {
		if sp.Parent == 0 && sp.Stage == stage {
			out = append(out, sp)
		}
	}
	return out
}

// TestTracerRecordsEdgeLifecycle: a served request is one request root
// ending "served", whose duration is exactly the latency the ledger
// observed, with the gateway's decide instant under it (the indirect flow).
func TestTracerRecordsEdgeLifecycle(t *testing.T) {
	r := newRig(t, DefaultConfig(), 1, 2)
	rec := &trace.Recorder{}
	r.mw.Tracer = rec
	c := r.mw.Clusters()[0]
	r.mw.SubmitEdge(c, r.devices[0], edgeReqOf(0.05, 0.5))
	r.e.Run(10)
	served := roots(rec, "request")
	if len(served) != 1 {
		t.Fatalf("request roots = %d, want 1", len(served))
	}
	root := served[0]
	if root.Detail != "served" {
		t.Errorf("root detail = %q, want served", root.Detail)
	}
	lat := r.mw.Edge.Latency.Values()
	if len(lat) != 1 || lat[0] <= 0 || root.Duration() != lat[0] {
		t.Errorf("root duration %v, observed latencies %v", root.Duration(), lat)
	}
	decided := false
	for _, sp := range rec.Spans() {
		decided = decided || (sp.Parent == root.ID && sp.Stage == "decide")
	}
	if !decided {
		t.Error("indirect request has no decide instant under its root")
	}
}

// TestTracerRecordsRejections: a rejected request is one request root
// ending "rejected", counted by the ledger and absent from its latencies.
func TestTracerRecordsRejections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offload = rejectAll{}
	r := newRig(t, cfg, 1, 1)
	rec := &trace.Recorder{}
	r.mw.Tracer = rec
	c := r.mw.Clusters()[0]
	for i := 0; i < 16; i++ {
		c.Workers()[0].M.Start(&server.Task{Work: 1e6, Class: classEdge})
	}
	r.mw.SubmitEdge(c, r.devices[0], edgeReqOf(0.05, 0.5))
	r.e.Run(10)
	rejected := roots(rec, "request")
	if len(rejected) != 1 || rejected[0].Detail != "rejected" {
		t.Fatalf("request roots = %+v, want one ending rejected", rejected)
	}
	if got := r.mw.Edge.Rejected.Value(); got != 1 {
		t.Errorf("ledger rejected = %d, want 1", got)
	}
	if n := r.mw.Edge.Latency.Count(); n != 0 {
		t.Errorf("rejected request observed %d latencies", n)
	}
}

// TestTracerRecordsDCCJobs: a finished batch job is one dcc-job root
// ending "done", whose duration is exactly the observed flow time.
func TestTracerRecordsDCCJobs(t *testing.T) {
	r := newRig(t, DefaultConfig(), 1, 2)
	rec := &trace.Recorder{}
	r.mw.Tracer = rec
	c := r.mw.Clusters()[0]
	r.mw.SubmitDCC(c, r.op, workload.BatchJob{ID: 1, TaskWork: []float64{60, 60}, Input: 1e6, Output: 1e6})
	r.e.Run(sim.Hour)
	jobs := roots(rec, "dcc-job")
	if len(jobs) != 1 {
		t.Fatalf("dcc-job roots = %d, want 1", len(jobs))
	}
	if jobs[0].Detail != "done" {
		t.Errorf("root detail = %q, want done", jobs[0].Detail)
	}
	flow := r.mw.DCC.JobFlowTime.Values()
	if len(flow) != 1 || flow[0] < 60 || jobs[0].Duration() != flow[0] {
		t.Errorf("root duration %v, observed flow times %v (want equal, ≥ 60)",
			jobs[0].Duration(), flow)
	}
}

// rejectAll is offload.RejectPolicy under a test-local name.
type rejectAll = offload.RejectPolicy
