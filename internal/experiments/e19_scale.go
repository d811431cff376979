package experiments

import (
	"fmt"

	"df3/internal/city"
	"df3/internal/network"
	"df3/internal/report"
	"df3/internal/sim"
)

// E19ShardScale is the scale sweep for the sharded kernel: a federation of
// complete cities (the nation-scale workload class of the conclusion —
// "whole cities as one distributed computer") is run at growing city counts
// and shard counts, with inter-city batch offload crossing the backbone.
//
// Two claims are under test. Determinism: at every scale the N-shard
// federation checksum (ledgers, latencies, event counts, clocks, per city)
// must equal the 1-shard checksum — conservative windows with
// backbone-lookahead never reorder observable work. Scalability: the
// critical-path speedup — total events over the sum of per-window maximum
// shard event counts, the barrier-synchronous bound a ≥N-core machine
// realizes in wall-clock — must grow toward the shard count. Cities are
// homogeneous templates, so the contiguous partition balances well and
// 4 shards should come in near 4×.
func E19ShardScale(o Options) *Result {
	res := newResult("E19 shard scale: federation speedup and determinism")

	// The sweep: city counts scale the seed city 10× and 100× (full mode);
	// each scale runs at 1, 2 and 4 shards against the serial reference.
	scales := []int{10, 100}
	shardCounts := []int{1, 2, 4}
	if o.Quick {
		scales = []int{2, 4}
		shardCounts = []int{1, 2}
	}

	t := report.NewTable("federation scale sweep (shard kernel vs serial)",
		"cities", "shards", "events", "msgs", "x-shard", "windows",
		"speedup", "efficiency", "identical")
	allIdentical := true
	for _, cities := range scales {
		var ref uint64
		for _, shards := range shardCounts {
			f, until := E19Point(o, cities, shards)
			f.Run(until)
			sum := f.Checksum()
			st := f.Kernel.Stats()
			identical := "ref"
			if shards == shardCounts[0] {
				ref = sum
			} else if sum == ref {
				identical = "yes"
			} else {
				identical = "NO"
				allIdentical = false
			}
			speedup := st.Speedup()
			t.Row(cities, shards, int64(st.TotalEvents), st.Sent, st.CrossShard,
				st.Windows, speedup, speedup/float64(shards), identical)
			key := fmt.Sprintf("speedup_%dx_%ds", cities, shards)
			res.Findings[key] = speedup
		}
	}
	res.Tables = append(res.Tables, t)

	res.Findings["identical_all"] = 0
	if allIdentical {
		res.Findings["identical_all"] = 1
	}
	top := fmt.Sprintf("speedup_%dx_%ds", scales[len(scales)-1], shardCounts[len(shardCounts)-1])
	res.Notes = append(res.Notes, fmt.Sprintf(
		"critical-path speedup at the largest point (%d cities, %d shards): %.2f×; all shard counts byte-identical to serial: %v",
		scales[len(scales)-1], shardCounts[len(shardCounts)-1], res.Findings[top], allIdentical))
	res.Notes = append(res.Notes,
		"speedup is the deterministic barrier-synchronous bound (events / critical-path events); wall-clock matches it on a machine with ≥shards cores")
	return res
}

// E19Point builds one point of E19's sweep: a federation of `cities`
// template cities (2 buildings × 4 rooms, 2 datacenter nodes) on `shards`
// kernel workers, with E19's edge and inter-city traffic started. It
// returns the federation and the time to run it to: the traffic horizon
// (6 h, or 2 h with o.Quick) plus an hour of drain.
func E19Point(o Options, cities, shards int) (*city.Federation, sim.Time) {
	horizon := 6 * sim.Hour
	if o.Quick {
		horizon = 2 * sim.Hour
	}
	cfg := city.DefaultConfig()
	cfg.Buildings = 2
	cfg.RoomsPerBuilding = 4
	cfg.DatacenterNodes = 2
	// Inter-city offload is staged batch work: jobs accumulate at the
	// boundary for a couple of minutes before dispatch. The staging floor is
	// the kernel's lookahead, so it also sets the window length — long
	// enough to average out per-city workload bursts inside each window.
	backbone := network.DefaultBackbone()
	backbone.Staging = 120
	f := city.BuildFederation(city.FederationConfig{
		Seed: o.Seed, Cities: cities, Shards: shards, City: cfg,
		Backbone: backbone,
	})
	f.StartEdgeTraffic(horizon, 0.5)
	f.StartInterCityDCC(horizon, 2)
	return f, horizon + sim.Hour
}
