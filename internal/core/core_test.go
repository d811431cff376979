package core

import (
	"math"
	"testing"

	"df3/internal/network"
	"df3/internal/offload"
	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/workload"
)

// rig is a small test scenario: nClusters clusters of nWorkers Q.rads on a
// building LAN each, metro links between gateways, and a datacenter across
// the Internet.
type rig struct {
	e       *sim.Engine
	net     *network.Fabric
	mw      *Middleware
	devices []network.NodeID // one device per cluster
	op      network.NodeID   // operator node
}

func newRig(t testing.TB, cfg Config, nClusters, nWorkers int) *rig {
	t.Helper()
	e := sim.New()
	net := network.NewFabric(e)
	mw := New(e, net, cfg)
	r := &rig{e: e, net: net, mw: mw}

	r.op = net.AddNode("operator")
	dcNode := net.AddNode("datacenter")
	var dcMachines []*server.Machine
	for i := 0; i < 4; i++ {
		dcMachines = append(dcMachines, server.DatacenterNodeSpec().Build(e, "dc"))
	}

	var gws []network.NodeID
	for ci := 0; ci < nClusters; ci++ {
		edgeGW := net.AddNode("edge-gw")
		dccGW := net.AddNode("dcc-gw")
		net.Connect(edgeGW, dccGW, network.LAN)
		dev := net.AddNode("device")
		net.Connect(dev, edgeGW, network.LAN)
		var workers []*Worker
		for wi := 0; wi < nWorkers; wi++ {
			m := server.QradSpec().Build(e, "qrad")
			node := net.AddNode("room")
			net.Connect(node, edgeGW, network.LAN)
			workers = append(workers, &Worker{M: m, Node: node})
		}
		mw.AddCluster(edgeGW, dccGW, workers)
		r.devices = append(r.devices, dev)
		gws = append(gws, edgeGW)
		// Operator reaches each DCC gateway over fibre.
		net.Connect(r.op, dccGW, network.Fibre)
	}
	for i := 0; i < len(gws); i++ {
		for j := i + 1; j < len(gws); j++ {
			net.Connect(gws[i], gws[j], network.Metro)
		}
	}
	mw.PeerAll()
	for _, gw := range gws {
		net.Connect(gw, dcNode, network.Internet)
	}
	mw.SetDatacenter(dcNode, dcMachines)
	return r
}

func edgeReqOf(work float64, deadline sim.Time) workload.EdgeRequest {
	return workload.EdgeRequest{Work: work, Deadline: deadline, Input: 16e3, Output: 200}
}

func TestEdgeIndirectServed(t *testing.T) {
	r := newRig(t, DefaultConfig(), 1, 2)
	c := r.mw.Clusters()[0]
	r.mw.SubmitEdge(c, r.devices[0], edgeReqOf(0.05, 0.5))
	r.e.Run(10)
	if r.mw.Edge.Served.Value() != 1 {
		t.Fatalf("served = %d", r.mw.Edge.Served.Value())
	}
	if r.mw.Edge.Missed.Value() != 0 {
		t.Error("request missed its generous deadline")
	}
	lat := r.mw.Edge.Latency.Mean()
	// Expected: ~50 ms exec + 4 LAN transfers; far below 200 ms.
	if lat <= 0.05 || lat > 0.2 {
		t.Errorf("indirect latency = %v", lat)
	}
}

func TestEdgeDirectFasterThanIndirect(t *testing.T) {
	run := func(direct bool) float64 {
		r := newRig(t, DefaultConfig(), 1, 2)
		c := r.mw.Clusters()[0]
		for i := 0; i < 50; i++ {
			i := i
			r.e.At(sim.Time(i)*2, func() {
				req := edgeReqOf(0.05, 0.5)
				if direct {
					r.mw.SubmitEdgeDirect(c, r.devices[0], c.Workers()[0], req)
				} else {
					r.mw.SubmitEdge(c, r.devices[0], req)
				}
			})
		}
		r.e.Run(200)
		return r.mw.Edge.Latency.Mean()
	}
	direct, indirect := run(true), run(false)
	if direct >= indirect {
		t.Errorf("direct latency %v not below indirect %v", direct, indirect)
	}
}

func TestEdgeDirectFallsBack(t *testing.T) {
	r := newRig(t, DefaultConfig(), 1, 2)
	c := r.mw.Clusters()[0]
	pinned := c.Workers()[0]
	// Fill the pinned worker completely.
	for i := 0; i < pinned.M.Cores; i++ {
		pinned.M.Start(&server.Task{Work: 1e6, Class: classDCC})
	}
	r.mw.SubmitEdgeDirect(c, r.devices[0], pinned, edgeReqOf(0.05, 5))
	r.e.Run(10)
	if r.mw.Edge.DirectFallbacks.Value() != 1 {
		t.Errorf("fallbacks = %d", r.mw.Edge.DirectFallbacks.Value())
	}
	if r.mw.Edge.Served.Value() != 1 {
		t.Errorf("served = %d (fallback should still serve)", r.mw.Edge.Served.Value())
	}
}

func TestDCCJobCompletes(t *testing.T) {
	r := newRig(t, DefaultConfig(), 1, 2)
	c := r.mw.Clusters()[0]
	job := workload.BatchJob{ID: 1, TaskWork: []float64{60, 120, 60}, Input: 1e6, Output: 1e6}
	r.mw.SubmitDCC(c, r.op, job)
	r.e.Run(sim.Hour)
	if r.mw.DCC.JobsDone.Value() != 1 {
		t.Fatalf("jobs done = %d", r.mw.DCC.JobsDone.Value())
	}
	if r.mw.DCC.TasksDone.Value() != 3 {
		t.Errorf("tasks done = %d", r.mw.DCC.TasksDone.Value())
	}
	if math.Abs(r.mw.DCC.WorkDone-240) > 1e-9 {
		t.Errorf("work done = %v", r.mw.DCC.WorkDone)
	}
	// 32 free cores, 3 tasks: flow ≈ max task (120 s) + transfers.
	if ft := r.mw.DCC.JobFlowTime.Mean(); ft < 120 || ft > 140 {
		t.Errorf("flow time = %v", ft)
	}
	if st := r.mw.DCC.JobStretch.Mean(); st < 1 || st > 1.2 {
		t.Errorf("stretch = %v", st)
	}
}

func TestEdgePreemptsDCC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offload = offload.PreemptPolicy{}
	r := newRig(t, cfg, 1, 1)
	c := r.mw.Clusters()[0]
	// Saturate the single worker (16 cores) with long DCC work.
	works := make([]float64, 16)
	for i := range works {
		works[i] = 3600
	}
	r.mw.SubmitDCC(c, r.op, workload.BatchJob{ID: 1, TaskWork: works, Input: 1e6, Output: 1e6})
	r.e.Run(60)
	// Now an edge request arrives: it must preempt.
	r.mw.SubmitEdge(c, r.devices[0], edgeReqOf(0.05, 0.5))
	r.e.Run(120)
	if r.mw.Edge.Preemptions.Value() != 1 {
		t.Fatalf("preemptions = %d", r.mw.Edge.Preemptions.Value())
	}
	if r.mw.Edge.Served.Value() != 1 || r.mw.Edge.Missed.Value() != 0 {
		t.Errorf("served=%d missed=%d", r.mw.Edge.Served.Value(), r.mw.Edge.Missed.Value())
	}
	// The preempted DCC task must eventually finish too.
	r.e.Run(2 * sim.Hour)
	if r.mw.DCC.TasksDone.Value() != 16 {
		t.Errorf("dcc tasks done = %d, want 16 (victim resumed)", r.mw.DCC.TasksDone.Value())
	}
}

func TestVerticalOffload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offload = offload.VerticalPolicy{}
	r := newRig(t, cfg, 1, 1)
	c := r.mw.Clusters()[0]
	// Saturate the worker with edge-class tasks so no preemption exists.
	for i := 0; i < 16; i++ {
		c.Workers()[0].M.Start(&server.Task{Work: 1e6, Class: classEdge})
	}
	r.mw.SubmitEdge(c, r.devices[0], edgeReqOf(0.05, 1.0))
	r.e.Run(30)
	if r.mw.Edge.Vertical.Value() != 1 {
		t.Fatalf("vertical offloads = %d", r.mw.Edge.Vertical.Value())
	}
	if r.mw.Edge.Served.Value() != 1 {
		t.Fatalf("served = %d", r.mw.Edge.Served.Value())
	}
	// The vertical path pays ≥ 4 Internet latencies (in via gw, out via
	// gw): latency must exceed the pure-local figure.
	if lat := r.mw.Edge.Latency.Mean(); lat < 0.1 {
		t.Errorf("vertical latency = %v, implausibly low", lat)
	}
}

func TestHorizontalOffload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offload = offload.HorizontalPolicy{}
	r := newRig(t, cfg, 2, 1)
	c0, c1 := r.mw.Clusters()[0], r.mw.Clusters()[1]
	for i := 0; i < 16; i++ {
		c0.Workers()[0].M.Start(&server.Task{Work: 1e6, Class: classEdge})
	}
	r.mw.SubmitEdge(c0, r.devices[0], edgeReqOf(0.05, 1.0))
	r.e.Run(30)
	if r.mw.Edge.Horizontal.Value() != 1 {
		t.Fatalf("horizontal offloads = %d", r.mw.Edge.Horizontal.Value())
	}
	if r.mw.Edge.Served.Value() != 1 {
		t.Fatalf("served = %d", r.mw.Edge.Served.Value())
	}
	if got := c1.Workers()[0].M.AssignedTasks(); got != 0 {
		// The forwarded task should have completed by now.
		t.Errorf("neighbour still has %d tasks", got)
	}
}

func TestRejectPolicyDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offload = offload.RejectPolicy{}
	r := newRig(t, cfg, 1, 1)
	c := r.mw.Clusters()[0]
	for i := 0; i < 16; i++ {
		c.Workers()[0].M.Start(&server.Task{Work: 1e6, Class: classEdge})
	}
	r.mw.SubmitEdge(c, r.devices[0], edgeReqOf(0.05, 1.0))
	r.e.Run(10)
	if r.mw.Edge.Rejected.Value() != 1 {
		t.Errorf("rejected = %d", r.mw.Edge.Rejected.Value())
	}
	if r.mw.Edge.MissRate() != 1 {
		t.Errorf("miss rate = %v", r.mw.Edge.MissRate())
	}
}

func TestDedicatedArchIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arch = Dedicated
	cfg.DedicatedEdgeWorkers = 1
	r := newRig(t, cfg, 1, 2)
	c := r.mw.Clusters()[0]
	// Flood with DCC: it must only ever occupy the non-dedicated worker.
	works := make([]float64, 64)
	for i := range works {
		works[i] = 600
	}
	r.mw.SubmitDCC(c, r.op, workload.BatchJob{ID: 1, TaskWork: works, Input: 1e6, Output: 1e6})
	r.e.Run(120)
	if got := c.Workers()[0].M.AssignedTasks(); got != 0 {
		t.Errorf("dedicated edge worker runs %d DCC tasks", got)
	}
	if got := c.Workers()[1].M.AssignedTasks(); got == 0 {
		t.Error("DCC worker idle despite flood")
	}
	// Edge requests land instantly on the dedicated worker.
	r.mw.SubmitEdge(c, r.devices[0], edgeReqOf(0.05, 0.5))
	r.e.Run(130)
	if r.mw.Edge.Served.Value() != 1 || r.mw.Edge.Missed.Value() != 0 {
		t.Errorf("edge on dedicated arch: served=%d missed=%d",
			r.mw.Edge.Served.Value(), r.mw.Edge.Missed.Value())
	}
}

func TestExpiredQueuedRequestsDropped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offload = offload.DelayPolicy{}
	r := newRig(t, cfg, 1, 1)
	c := r.mw.Clusters()[0]
	// Block the worker for 10 s with edge-class tasks.
	for i := 0; i < 16; i++ {
		c.Workers()[0].M.Start(&server.Task{Work: 10, Class: classEdge})
	}
	// These requests have 0.5 s deadlines: all will expire in queue.
	for i := 0; i < 5; i++ {
		r.mw.SubmitEdge(c, r.devices[0], edgeReqOf(0.05, 0.5))
	}
	r.e.Run(60)
	if r.mw.Edge.Rejected.Value() != 5 {
		t.Errorf("rejected = %d, want 5 expired", r.mw.Edge.Rejected.Value())
	}
	if r.mw.Edge.Served.Value() != 0 {
		t.Errorf("served = %d, want 0", r.mw.Edge.Served.Value())
	}
}

func TestEdgeStatsMissRate(t *testing.T) {
	var s EdgeStats
	s.Served.Addn(8)
	s.Missed.Addn(1)
	s.Rejected.Addn(2)
	if got := s.Arrived(); got != 10 {
		t.Errorf("arrived = %d", got)
	}
	if got := s.MissRate(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("miss rate = %v", got)
	}
}

func TestThreeFlowsCoexist(t *testing.T) {
	// E3 smoke test: run edge + DCC together; both make progress and no
	// flow starves.
	r := newRig(t, DefaultConfig(), 2, 2)
	works := make([]float64, 40)
	for i := range works {
		works[i] = 300
	}
	for ci, c := range r.mw.Clusters() {
		r.mw.SubmitDCC(c, r.op, workload.BatchJob{ID: uint64(ci + 1), TaskWork: works, Input: 1e6, Output: 1e6})
	}
	for i := 0; i < 100; i++ {
		i := i
		r.e.At(sim.Time(i)*5, func() {
			c := r.mw.Clusters()[i%2]
			r.mw.SubmitEdge(c, r.devices[i%2], edgeReqOf(0.05, 0.5))
		})
	}
	r.e.Run(2 * sim.Hour)
	if r.mw.Edge.Served.Value() != 100 {
		t.Errorf("edge served = %d/100", r.mw.Edge.Served.Value())
	}
	if r.mw.Edge.MissRate() > 0.05 {
		t.Errorf("edge miss rate = %v", r.mw.Edge.MissRate())
	}
	if r.mw.DCC.JobsDone.Value() != 2 {
		t.Errorf("dcc jobs done = %d/2", r.mw.DCC.JobsDone.Value())
	}
}
