package experiments

import (
	"fmt"

	"df3/internal/baseline"
	"df3/internal/city"
	"df3/internal/report"
	"df3/internal/sim"
)

// E8EdgeLatency measures the latency distribution of the three §II-C
// service paths on identical workloads: direct local requests (device and
// DF server share a room), indirect requests through the edge gateway, and
// the cloud-only path across the Internet. Expected shape: direct <
// indirect ≪ cloud, with the cloud penalty set by Internet RTT.
//
// Each path is one independent city arm: the three cities run in parallel
// on the fanout pool and are read in arm order.
func E8EdgeLatency(o Options) *Result {
	res := newResult("E8 edge latency: direct vs indirect vs cloud")
	horizon := 2 * sim.Day
	if o.Quick {
		horizon = 12 * sim.Hour
	}

	base := func() city.Config {
		cfg := city.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.Buildings = 3
		cfg.RoomsPerBuilding = 5
		return cfg
	}

	arms := []struct {
		name, finding string
	}{
		{"direct", "direct_median_ms"},
		{"indirect", "indirect_median_ms"},
		{"cloud-only", "cloud_median_ms"},
	}
	cities := make([]*city.City, len(arms))

	t := report.NewTable("edge service paths on the alarm-detection workload",
		"path", "mean ms", "median ms", "p99 ms", "served", "miss rate", "note")
	fanoutCollect(len(arms), func(i int) {
		cfg := base()
		if i == 2 { // cloud-only: same city, every request forced vertical
			cfg.Middleware.Offload = baseline.AlwaysVertical{}
		}
		c := city.Build(cfg)
		if i == 0 {
			c.StartDirectEdgeTraffic(horizon, 1)
		} else {
			c.StartEdgeTraffic(horizon, 1)
		}
		c.Engine.Run(horizon + sim.Hour)
		cities[i] = c
	}, func(i int) {
		e := &cities[i].MW.Edge
		note := ""
		switch i {
		case 0:
			note = fmt.Sprintf("%d fallbacks", e.DirectFallbacks.Value())
		case 2:
			note = "via Internet to DC"
		}
		t.Row(arms[i].name, e.Latency.Mean()*1000, e.Latency.Median()*1000,
			e.Latency.P99()*1000, e.Served.Value(), e.MissRate(), note)
		res.Findings[arms[i].finding] = e.Latency.Median() * 1000
	})
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"median latency: direct %.1f ms < indirect %.1f ms < cloud %.1f ms",
		res.Findings["direct_median_ms"], res.Findings["indirect_median_ms"], res.Findings["cloud_median_ms"]))
	return res
}
