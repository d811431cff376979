package main

import (
	"fmt"
	"os"

	"df3/internal/experiments"
	"df3/internal/report"
)

// runShardprofMode profiles a point of E19's sweep — the 10-city
// federation on 4 shards, or 4 cities on 2 with -quick — built by E19's
// own code with the kernel profiler on. It answers *why* the speedup is
// what it is: which shards sit idle at barriers, which LP's
// min-next-event sets the windows, and which boundary pair's lookahead
// binds the window width. A second, unprofiled twin run proves the
// profiler is pure observation (identical checksums).
func runShardprofMode(cfg benchConfig, seed uint64) {
	cities, shards := 10, 4
	if cfg.quick {
		cities, shards = 4, 2
	}
	o := experiments.Options{Seed: seed, Quick: cfg.quick}

	fmt.Printf("df3bench: shard profile, %d cities on %d shards, seed %d\n", cities, shards, seed)
	prof, until := experiments.E19Point(o, cities, shards)
	prof.Kernel.EnableProfile()
	prof.Run(until)
	twin, _ := experiments.E19Point(o, cities, shards)
	twin.Run(until)

	rep, ok := prof.Kernel.ProfileReport()
	if !ok {
		fmt.Fprintln(os.Stderr, "df3bench: profiler produced no report")
		os.Exit(1)
	}
	st := prof.Kernel.Stats()
	fmt.Printf("windows %d (%d limited), parallel wall %.3fs, lookahead %.0f sim-s, critical-path speedup %.2fx\n",
		rep.Windows, rep.LimitedWindows, rep.Wall.Seconds(), float64(rep.Lookahead), st.Speedup())
	fmt.Printf("profiled checksum identical to unprofiled twin: %v\n\n", prof.Checksum() == twin.Checksum())

	shardTable := report.NewTable("per-shard busy vs barrier-idle",
		"shard", "lps", "events", "busy_s", "idle_s", "util")
	for _, s := range rep.Shards {
		shardTable.Row(s.Shard, s.LPs, int64(s.Events),
			s.Busy.Seconds(), s.Idle.Seconds(), s.Utilization)
	}
	limTable := report.NewTable("barrier limiters (LPs whose min-next-event set the window)",
		"lp", "name", "shard", "windows", "frac")
	for i, l := range rep.Limiters {
		if i == 10 {
			break
		}
		limTable.Row(l.LP, l.Name, l.Shard, int64(l.Windows), l.Frac)
	}
	pairTable := report.NewTable("cross-shard boundary pairs (a pair binds when its observed min delay sits at the lookahead)",
		"src", "dst", "msgs", "bytes", "min_delay_s", "slack_s", "binds")
	for _, p := range rep.Pairs {
		// Observed delays never undercut the configured lookahead; a pair
		// within 10% of it is the constraint a larger lookahead would hit.
		slack := float64(p.MinDelay - rep.Lookahead)
		binds := "no"
		if slack <= 0.1*float64(rep.Lookahead) {
			binds = "yes"
		}
		pairTable.Row(p.SrcShard, p.DstShard, p.Messages, p.Bytes, float64(p.MinDelay), slack, binds)
	}
	for _, t := range []*report.Table{shardTable, limTable, pairTable} {
		if err := t.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "df3bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
