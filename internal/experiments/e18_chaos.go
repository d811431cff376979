package experiments

import (
	"fmt"

	"df3/internal/city"
	"df3/internal/report"
	"df3/internal/sim"
	"df3/internal/trace"
)

func newChaosTable() *report.Table {
	return report.NewTable("graceful degradation under network chaos (alarm + batch workload)",
		"scenario", "served frac", "p99 ms", "retries", "timeouts",
		"dcc goodput", "jobs lost", "msgs lost", "outages", "balance")
}

// E18Chaos answers §III-B's "what about networks?" for the fabric itself:
// a city-scale DF3 platform rides metro and Internet links that flap and
// building networks that lose packets, so the middleware's retry/timeout
// ladder — not link perfection — has to carry the service. The experiment
// sweeps chaos intensity from none to heavy (random loss, link renewal
// failures, whole-gateway outages) on an identical workload and reports
// the served fraction, tail latency and DCC goodput at each level. The
// claim under test is graceful degradation: served fraction should fall
// smoothly with fault intensity, never cliff-edge, and the conservation
// ledgers (submitted == served + rejected, jobs == done + lost) must
// balance exactly at every level — chaos may lose messages, never
// accounting.
//
// Each chaos level is one independent city arm: the nine cities run in
// parallel on the fanout pool and are read in scenario order. A traced arm
// records into its own recorder (recorders are not concurrency-safe),
// which merges into o.Tracer as the arm is read; the merge gives spans and
// processes the ids one shared recorder would have.
func E18Chaos(o Options) *Result {
	res := newResult("E18 chaos: graceful degradation under network faults")
	horizon := 2 * sim.Day
	if o.Quick {
		horizon = 8 * sim.Hour
	}

	type scenario struct {
		name     string
		loss     float64  // per-message loss on every wired class
		linkMTBF sim.Time // metro + LAN link renewal failures
		gwMTBF   sim.Time // whole-building gateway outages
	}
	scenarios := []scenario{
		{"no faults", 0, 0, 0},
		{"loss 0.1%", 0.001, 0, 0},
		{"loss 1%", 0.01, 0, 0},
		{"loss 5%", 0.05, 0, 0},
		{"links MTBF 8h", 0, 8 * sim.Hour, 0},
		{"links MTBF 2h", 0, 2 * sim.Hour, 0},
		{"links 2h + loss 1%", 0.01, 2 * sim.Hour, 0},
		{"gateways MTBF 12h", 0, 0, 12 * sim.Hour},
		{"heavy: loss 20% + links 1h + gw 6h", 0.2, sim.Hour, 6 * sim.Hour},
	}

	cities := make([]*city.City, len(scenarios))
	tracers := make([]*trace.Recorder, len(scenarios))
	capacity := 0
	if o.Tracer != nil {
		capacity = o.Tracer.Capacity()
	}
	t := newChaosTable()
	balancedAll := true
	servedFracs := make([]float64, 0, len(scenarios))

	fanoutCollect(len(scenarios), func(i int) {
		s := scenarios[i]
		cfg := city.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.Buildings = 3
		cfg.RoomsPerBuilding = 5
		if o.Quick {
			cfg.Buildings = 2
			cfg.RoomsPerBuilding = 4
		}
		// The resilience ladder under test: 1 s response timeout, up to 3
		// retries climbing local → horizontal → vertical, DCC payloads
		// retried on an exponential backoff.
		cfg.Middleware.ResponseTimeout = 1
		cfg.Middleware.EdgeMaxRetries = 3
		cfg.Middleware.DCCMaxRetries = 3
		cfg.Middleware.DCCRetryBackoff = 0.5
		if s.loss > 0 {
			cfg.LinkLoss = map[string]float64{
				"lan": s.loss, "metro": s.loss, "internet": s.loss, "fibre": s.loss,
			}
		}
		if s.linkMTBF > 0 {
			// Metro links flap at the given MTBF; building LANs are an
			// order steadier.
			cfg.LinkMTBF = map[string]sim.Time{
				"metro": s.linkMTBF, "lan": 10 * s.linkMTBF,
			}
		}
		cfg.GatewayMTBF = s.gwMTBF

		c := city.Build(cfg)
		if o.Tracer != nil {
			rec := trace.NewRecorder(capacity)
			rec.BeginProcess("E18 " + s.name)
			c.EnableTracing(rec)
			tracers[i] = rec
		}
		c.StartEdgeTraffic(horizon, 1)
		c.StartDCCTraffic(horizon, 1.5)
		c.Engine.Run(horizon + 12*sim.Hour) // drain the tail
		cities[i] = c
	}, func(i int) {
		s, c := scenarios[i], cities[i]
		o.Tracer.Merge(tracers[i])
		// Release the arm once read, so a traced sweep holds only the arms
		// still waiting to be read, not every arm's spans twice.
		cities[i], tracers[i] = nil, nil
		e := &c.MW.Edge
		d := &c.MW.DCC
		servedFrac := float64(e.Served.Value()) / float64(e.Submitted.Value())
		servedFracs = append(servedFracs, servedFrac)
		balanced := e.Submitted.Value() == e.Served.Value()+e.Rejected.Value() &&
			d.JobsSubmitted.Value() == d.JobsDone.Value()+d.JobsLost.Value()
		if !balanced {
			balancedAll = false
		}
		balance := "ok"
		if !balanced {
			balance = "VIOLATED"
		}
		t.Row(s.name, servedFrac, e.Latency.P99()*1000,
			e.Retries.Value(), e.TimedOut.Value(),
			d.Throughput(horizon), d.JobsLost.Value(),
			c.MessagesLost.Value(),
			c.LinkOutages.Value()+c.GatewayOutages.Value(), balance)
	})
	res.Tables = append(res.Tables, t)

	res.Findings["served_frac_clean"] = servedFracs[0]
	worst := servedFracs[0]
	for _, f := range servedFracs {
		if f < worst {
			worst = f
		}
	}
	res.Findings["served_frac_worst"] = worst
	res.Findings["conservation_ok"] = 0
	if balancedAll {
		res.Findings["conservation_ok"] = 1
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"served fraction degrades %.4f → %.4f across the chaos sweep; conservation balanced in all %d scenarios: %v",
		servedFracs[0], worst, len(scenarios), balancedAll))
	return res
}
