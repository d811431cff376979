package core

import (
	"testing"

	"df3/internal/offload"
	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/workload"
)

// serveOne submits one indirect request on the rig's first cluster and
// runs the engine until it has been served.
func (r *rig) serveOne(req workload.EdgeRequest) {
	r.mw.SubmitEdge(r.mw.Clusters()[0], r.devices[0], req)
	r.e.Run(r.e.Now() + 1)
}

// TestEdgeRequestSteadyStateAllocs: once routes are cached and the free
// lists are warm, serving one indirect request allocates its edgeReq and
// nothing else: every continuation rides a pooled leg whose callbacks
// were bound when it was made, and the leg's task holds its completion
// Event.
func TestEdgeRequestSteadyStateAllocs(t *testing.T) {
	r := newRig(t, DefaultConfig(), 1, 2)
	// Running statistics only, so a served latency appends to no sample.
	r.mw.StatsOnly()
	req := edgeReqOf(0.05, 0.5)
	for i := 0; i < 16; i++ {
		r.serveOne(req)
	}
	served := r.mw.Edge.Served.Value()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() { r.serveOne(req) })
	if got := r.mw.Edge.Served.Value() - served; got != runs+1 {
		t.Fatalf("served %d of %d requests", got, runs+1)
	}
	if allocs > 1 {
		t.Errorf("a served indirect request allocates %v objects, want at most 1", allocs)
	}
}

// BenchmarkEdgeRequest submits, serves and settles one indirect request
// per op on the test rig: the middleware's per-request cost over a warm
// fabric and engine.
func BenchmarkEdgeRequest(b *testing.B) {
	r := newRig(b, DefaultConfig(), 1, 2)
	r.mw.StatsOnly()
	req := edgeReqOf(0.05, 0.5)
	for i := 0; i < 16; i++ {
		r.serveOne(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.serveOne(req)
	}
}

// TestLegLedgerUnderChaos runs every rung of the edge ladder under wire
// loss, a flapping metro link, a gateway outage, worker failures and a
// response timeout, then audits the leg ledger once the platform drains:
// every leg ever made is either back on the free list, exactly once, or
// was orphaned by FailWorker evacuating its task; and no listed leg holds
// a request, cluster, worker, task context or open span.
func TestLegLedgerUnderChaos(t *testing.T) {
	policies := []offload.Policy{
		offload.Smart{},
		offload.PreemptPolicy{},
		offload.VerticalPolicy{},
		offload.HorizontalPolicy{},
	}
	for _, pol := range policies {
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Offload = pol
			cfg.ResponseTimeout = 0.5
			cfg.EdgeMaxRetries = 3
			r := newRig(t, cfg, 2, 2)
			r.mw.Tracer = &trace.Recorder{}
			r.net.SetLoss("lan", 0.05)
			r.net.SetLoss("metro", 0.1)
			r.net.SetLoss("internet", 0.1)
			r.net.SetLossRNG(rng.New(7))
			c0, c1 := r.mw.Clusters()[0], r.mw.Clusters()[1]
			orphans := 0
			fail := func(c *Cluster, w *Worker) {
				for _, task := range w.M.Tasks() {
					if _, ok := task.Ctx.(*edgeReq); ok {
						orphans++
					}
				}
				c.FailWorker(w)
			}
			// DCC backlog on cluster 0 gives the preempt rung victims.
			works := make([]float64, 40)
			for i := range works {
				works[i] = 120
			}
			r.mw.SubmitDCC(c0, r.op, workload.BatchJob{ID: 1, TaskWork: works, Input: 1e6, Output: 1e6})
			r.e.At(3, func() { r.net.FailLink(c0.EdgeGW, c1.EdgeGW) })
			r.e.At(6, func() { r.net.RestoreLink(c0.EdgeGW, c1.EdgeGW) })
			r.e.At(8, func() { r.net.FailNode(c1.EdgeGW) })
			r.e.At(11, func() { r.net.RestoreNode(c1.EdgeGW) })
			for _, at := range []sim.Time{2.05, 7.05, 12.05} {
				w := c0.Workers()[0]
				r.e.At(at, func() { fail(c0, w) })
				r.e.At(at+2, func() { c0.RestoreWorker(w) })
			}
			r.e.At(5.05, func() { fail(c1, c1.Workers()[1]) })
			r.e.At(6, func() { c1.RestoreWorker(c1.Workers()[1]) })
			const n = 300
			s := rng.New(5)
			for i := 0; i < n; i++ {
				i := i
				cl, dev := r.mw.Clusters()[i%2], r.devices[i%2]
				req := edgeReqOf(0.2+s.Float64(), 3)
				r.e.At(sim.Time(i)*0.05, func() {
					if i%3 == 0 {
						r.mw.SubmitEdgeDirect(cl, dev, cl.Workers()[i%2], req)
						return
					}
					r.mw.SubmitEdge(cl, dev, req)
				})
			}
			r.e.Run(6 * sim.Hour)

			e := &r.mw.Edge
			if e.Served.Value()+e.Rejected.Value() != n {
				t.Fatalf("served %d + rejected %d != %d", e.Served.Value(), e.Rejected.Value(), n)
			}
			if e.Retries.Value() == 0 || orphans == 0 {
				t.Fatalf("retries %d, orphaned legs %d: chaos not exercised", e.Retries.Value(), orphans)
			}
			if made, listed := r.mw.legsMade, len(r.mw.legs); made != listed+orphans {
				t.Errorf("legs made %d != %d on the free list + %d orphaned by FailWorker", made, listed, orphans)
			}
			seen := map[*leg]bool{}
			for _, l := range r.mw.legs {
				if seen[l] {
					t.Fatalf("leg %p is on the free list twice", l)
				}
				seen[l] = true
				if l.req != nil || l.c != nil || l.w != nil || l.task.Ctx != nil || l.cspan != 0 {
					t.Fatalf("a listed leg still holds req %p, cluster %p, worker %p, ctx %v, span %d",
						l.req, l.c, l.w, l.task.Ctx, l.cspan)
				}
				if l.task.Assigned() {
					t.Fatal("a listed leg's task still holds a slot")
				}
			}
		})
	}
}
