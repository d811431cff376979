package baseline

import (
	"fmt"

	"df3/internal/metrics"
	"df3/internal/rng"
	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/workload"
)

// GridPC is one volunteer desktop: a machine whose budget is slammed to
// zero whenever its owner is at the keyboard (BOINC-style suspension) and
// restored when they leave.
type GridPC struct {
	M *server.Machine
	// OwnerPresent mirrors the availability process.
	OwnerPresent bool
	// Interruptions counts owner arrivals that suspended running work —
	// the discomfort proxy of §I (the owner notices the machine busy).
	Interruptions int
}

// DesktopGrid is the opportunistic volunteer platform. It uses the pull
// scheduling model of BOINC-class middleware: volunteer clients poll the
// coordinator for work on a minute-scale interval, which is what makes the
// platform structurally unable to serve sub-second deadlines regardless of
// raw capacity — the paper's §I point.
type DesktopGrid struct {
	// PathDelay is the one-way network delay between a requester and any
	// volunteer (volunteers are scattered across the city).
	PathDelay sim.Time
	// MeanPresent and MeanAway are the exponential sojourns of the owner
	// availability process, in seconds.
	MeanPresent, MeanAway float64
	// PollInterval is how often each volunteer client asks for work.
	PollInterval sim.Time

	engine *sim.Engine
	stream *rng.Stream
	pcs    []*GridPC
	queue  []*gridReq

	// Latency samples served response times; Served/Missed/Expired count
	// outcomes (Expired = dropped after exceeding 100× its deadline).
	Latency metrics.Sample
	Served  metrics.Counter
	Missed  metrics.Counter
}

type gridReq struct {
	work     float64
	deadline sim.Time // absolute; 0 none
	arrival  sim.Time
}

// NewDesktopGrid builds a grid of n volunteer PCs with everyone initially
// away (machines available).
func NewDesktopGrid(e *sim.Engine, n int, seed uint64) *DesktopGrid {
	g := &DesktopGrid{
		PathDelay:    0.005,
		MeanPresent:  45 * 60,
		MeanAway:     30 * 60,
		PollInterval: 60,
		engine:       e,
		stream:       rng.New(seed),
	}
	for i := 0; i < n; i++ {
		m := server.DesktopPCSpec().Build(e, fmt.Sprintf("pc-%d", i))
		pc := &GridPC{M: m}
		g.pcs = append(g.pcs, pc)
		g.scheduleToggle(pc)
		// Pull model: each client polls for work on its own phase.
		e.AfterTransient(g.stream.Uniform(0, float64(g.PollInterval)), func() {
			g.poll(pc)
		})
	}
	return g
}

// poll is one client's periodic work request.
func (g *DesktopGrid) poll(pc *GridPC) {
	if !pc.OwnerPresent {
		for pc.M.FreeSlots() > 0 && len(g.queue) > 0 {
			g.startOn(pc, g.queue[0])
			g.queue = g.queue[1:]
		}
	}
	g.engine.AfterTransient(g.PollInterval, func() { g.poll(pc) })
}

// PCs returns the volunteer machines.
func (g *DesktopGrid) PCs() []*GridPC { return g.pcs }

// scheduleToggle arms the next owner arrival/departure for a PC.
func (g *DesktopGrid) scheduleToggle(pc *GridPC) {
	mean := g.MeanAway
	if pc.OwnerPresent {
		mean = g.MeanPresent
	}
	g.engine.AfterTransient(g.stream.Exp(1/mean), func() {
		pc.OwnerPresent = !pc.OwnerPresent
		if pc.OwnerPresent {
			if pc.M.RunningTasks() > 0 {
				pc.Interruptions++
			}
			pc.M.SetBudget(0) // owner back: suspend volunteer work
		} else {
			pc.M.SetBudget(pc.M.Model.MaxDraw())
		}
		g.scheduleToggle(pc)
	})
}

// Submit sends a request to the grid coordinator. It waits there until a
// volunteer polls for work.
func (g *DesktopGrid) Submit(r workload.EdgeRequest) {
	req := &gridReq{work: r.Work, arrival: g.engine.Now()}
	if r.Deadline > 0 {
		req.deadline = g.engine.Now() + r.Deadline
	}
	// Requester → coordinator path.
	g.engine.AfterTransient(g.PathDelay, func() {
		g.queue = append(g.queue, req)
	})
}

// startOn runs one queued request on a polling volunteer.
func (g *DesktopGrid) startOn(pc *GridPC, req *gridReq) {
	task := &server.Task{Work: req.work}
	task.OnDone = func(at sim.Time) {
		g.engine.AfterTransient(g.PathDelay, func() {
			lat := g.engine.Now() - req.arrival
			g.Latency.Observe(lat)
			g.Served.Inc()
			if req.deadline != 0 && g.engine.Now() > req.deadline {
				g.Missed.Inc()
			}
		})
	}
	if !pc.M.Start(task) {
		panic("baseline: grid poll picked a full PC")
	}
}

// QueueLen returns the number of waiting requests.
func (g *DesktopGrid) QueueLen() int { return len(g.queue) }

// MissRate returns missed/served (queued-forever requests excluded; report
// QueueLen separately).
func (g *DesktopGrid) MissRate() float64 {
	return metrics.Rate(g.Missed.Value(), g.Served.Value())
}

// Interruptions sums owner interruptions across PCs.
func (g *DesktopGrid) Interruptions() int {
	n := 0
	for _, pc := range g.pcs {
		n += pc.Interruptions
	}
	return n
}
