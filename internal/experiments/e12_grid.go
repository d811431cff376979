package experiments

import (
	"fmt"

	"df3/internal/baseline"
	"df3/internal/city"
	"df3/internal/report"
	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/workload"
)

// E12DesktopGrid runs the same deadline-bound edge workload on the DF3
// platform and on a BOINC-style opportunistic desktop grid — the §I
// argument: "the experimental validation of desktop grid architectures has
// often been done on opportunistic workloads ... such workloads do not
// capture the foundations of real-time applications", plus the discomfort
// the grid inflicts on hosts (owner interruptions).
func E12DesktopGrid(o Options) *Result {
	res := newResult("E12 DF3 vs opportunistic desktop grid")
	horizon := 2 * sim.Day
	if o.Quick {
		horizon = 12 * sim.Hour
	}

	// Shared workload trace: one MMPP stream, replayed onto both
	// platforms so they face identical arrivals.
	type arrival struct {
		at  sim.Time
		req workload.EdgeRequest
	}
	var tracefile []arrival
	{
		e := sim.New()
		gen := workload.DefaultEdgeGen(rng.New(o.Seed), 8)
		gen.Start(e, horizon, func(r workload.EdgeRequest) {
			tracefile = append(tracefile, arrival{e.Now(), r})
		})
		e.Run(horizon)
	}

	// DF3 city.
	var dfMiss, dfP99 float64
	var dfServed int64
	{
		cfg := city.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.Buildings = 2
		cfg.RoomsPerBuilding = 5
		c := city.Build(cfg)
		b := c.Buildings[0]
		for _, a := range tracefile {
			a := a
			c.Engine.AtTransient(a.at, func() {
				c.MW.SubmitEdge(b.Cluster, b.Rooms[a.req.Device%len(b.Rooms)].Node, a.req)
			})
		}
		c.Run(horizon + sim.Hour)
		dfMiss = c.MW.Edge.MissRate()
		dfP99 = c.MW.Edge.Latency.P99() * 1000
		dfServed = c.MW.Edge.Served.Value()
	}

	// Desktop grid with the same aggregate core count (10 PCs × 4 cores ≈
	// 2.5 Q.rads; give it MORE capacity than DF3's edge share to be fair).
	var gridMiss, gridP99 float64
	var gridServed int64
	var interruptions int
	var backlog int
	{
		e := sim.New()
		g := baseline.NewDesktopGrid(e, 20, o.Seed)
		for _, a := range tracefile {
			a := a
			e.AtTransient(a.at, func() { g.Submit(a.req) })
		}
		e.Run(horizon + sim.Hour)
		served := g.Served.Value()
		// Requests still queued when the run ends count as missed.
		backlog = g.QueueLen()
		gridMiss = float64(g.Missed.Value()+int64(backlog)) / float64(served+int64(backlog))
		gridP99 = g.Latency.P99() * 1000
		gridServed = served
		interruptions = g.Interruptions()
	}

	t := report.NewTable("identical deadline workload on both platforms",
		"platform", "served", "miss rate", "p99 ms", "host discomfort")
	t.Row("DF3 heaters", dfServed, dfMiss, dfP99, "none (heat is the service)")
	t.Row("desktop grid", gridServed, gridMiss, gridP99,
		fmt.Sprintf("%d owner interruptions, %d stranded requests", interruptions, backlog))
	res.Tables = append(res.Tables, t)

	res.Findings["df_miss"] = dfMiss
	res.Findings["grid_miss"] = gridMiss
	res.Findings["interruptions"] = float64(interruptions)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"miss rate: DF3 %.3f vs desktop grid %.3f; the grid interrupted its hosts %d times",
		dfMiss, gridMiss, interruptions))
	return res
}
