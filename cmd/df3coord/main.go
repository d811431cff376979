// Command df3coord coordinates a multi-node df3 federation run: it
// seals the scenario into a build recipe, partitions the cities into
// contiguous blocks, assigns one block to each df3node worker over the
// wire protocol, and drives the same conservative window barrier the
// in-process shard kernel uses — global min-next-event plus lookahead —
// routing cross-partition mailbox messages between workers in global
// (at, src, seq) order. The merged result (per-city records, summary,
// federation checksum) is byte-identical to a serial run of the same
// recipe; that equivalence is the point, and CI asserts it.
//
//	df3coord -cities 8 -days 1 -workers 127.0.0.1:9401,127.0.0.1:9402
//	df3coord -cities 8 -days 1 -nodes 2            # same run, in process
//
// Without -workers the coordinator runs its partitions in-process over
// the same Sync loop — the reference mode whose output a distributed run
// must reproduce exactly. A worker failure (died, wedged past -timeout,
// protocol error) fails the whole run fast with a non-zero exit; there
// is no partial result worth printing once determinism is lost.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"df3/internal/city"
	"df3/internal/report"
	"df3/internal/shard"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/wire"
)

// checksumLine is the final-state fingerprint df3coord prints; CI diffs
// it between serial and multi-process runs, the same contract as df3d's
// checksum line.
const checksumLine = "# df3coord federation checksum: 0x%016x\n"

func main() {
	var cfg coordConfig
	flag.StringVar(&cfg.workers, "workers", "", "comma-separated df3node addresses (host:port or unix:/path); empty runs in-process")
	flag.IntVar(&cfg.nodes, "nodes", 1, "in-process partitions when no -workers are given")
	flag.IntVar(&cfg.shards, "shards", 1, "shard workers per node")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.cities, "cities", 8, "federation size")
	flag.IntVar(&cfg.buildings, "buildings", 4, "buildings per city")
	flag.IntVar(&cfg.rooms, "rooms", 6, "rooms per building")
	flag.IntVar(&cfg.boilers, "boilers", 0, "boiler-plant buildings per city")
	flag.Float64Var(&cfg.days, "days", 1, "simulated days of traffic")
	flag.Float64Var(&cfg.edgeRate, "edge", 1, "edge request rate scale (0 disables)")
	flag.Float64Var(&cfg.dccRate, "dcc", 6, "batch jobs per hour per city (0 disables)")
	flag.Float64Var(&cfg.intercity, "intercity", 2, "inter-city offload jobs per hour per city (0 disables)")
	flag.DurationVar(&cfg.timeout, "timeout", wire.DefaultTimeout, "wall bound on each worker round trip")
	flag.StringVar(&cfg.metricsPath, "metrics", "", "write gathered worker metrics (Prometheus text) to this file")
	flag.StringVar(&cfg.tracePath, "trace", "", "write the workers' spans to this file as one span JSONL trace (summarise with df3trace)")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "df3coord:", err)
		os.Exit(2)
	}

	spec := cfg.spec()
	nodes := cfg.nodeCount()
	assign := shard.PartitionContiguous(spec.Cities, nodes, nil)
	owned := make([][]int, nodes)
	for ci, p := range assign {
		owned[p] = append(owned[p], ci)
	}

	var err error
	if len(cfg.workerList()) > 0 {
		err = runRemote(cfg, spec, owned)
	} else {
		err = runSerial(cfg, spec, owned)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "df3coord:", err)
		os.Exit(1)
	}
}

// runRemote drives df3node workers over the wire protocol.
func runRemote(cfg coordConfig, spec city.Spec, owned [][]int) error {
	recipe := spec.Marshal()
	workers := cfg.workerList()
	clients := make([]*wire.Client, len(workers))
	parts := make([]shard.Part, len(workers))
	var lookahead sim.Time
	for i, w := range workers {
		network, addr := dialTarget(w)
		cl, err := wire.Dial(network, addr, cfg.timeout)
		if err != nil {
			return err
		}
		defer cl.Close()
		r, err := cl.Assign(wire.Assign{Recipe: recipe, Shards: cfg.shards, Owned: owned[i]})
		if err != nil {
			return err
		}
		if i == 0 {
			lookahead = r.Lookahead
		} else if r.Lookahead != lookahead {
			return fmt.Errorf("worker %s lookahead %v, worker %s reported %v (build skew)",
				w, r.Lookahead, workers[0], lookahead)
		}
		fmt.Fprintf(os.Stderr, "df3coord: worker %s owns cities %d..%d\n",
			w, owned[i][0], owned[i][len(owned[i])-1])
		clients[i] = cl
		parts[i] = cl
	}

	states, sy, err := drive(spec, lookahead, parts, func(p int) ([]city.CityState, error) {
		return clients[p].States()
	})
	if err != nil {
		return err
	}
	report_(os.Stdout, cfg, spec, states, sy)

	if cfg.metricsPath != "" {
		if err := gatherChunks(cfg.metricsPath, workers, func(p int) ([]byte, error) {
			return clients[p].Metrics()
		}); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if cfg.tracePath != "" {
		if err := gatherSpans(cfg.tracePath, len(workers), func(p int) ([]byte, error) {
			return clients[p].Trace()
		}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	for i, cl := range clients {
		if err := cl.Bye(); err != nil {
			return fmt.Errorf("worker %s: %w", workers[i], err)
		}
	}
	return nil
}

// runSerial is the in-process reference mode: the identical partition
// and Sync loop, with each "worker" a restricted federation in this
// process. Its stdout is what a distributed run must reproduce
// byte-for-byte.
func runSerial(cfg coordConfig, spec city.Spec, owned [][]int) error {
	feds := make([]*city.Federation, len(owned))
	parts := make([]shard.Part, len(owned))
	for p := range owned {
		f := spec.Build(cfg.shards)
		f.Restrict(owned[p])
		feds[p] = f
		parts[p] = f.Kernel
	}
	states, sy, err := drive(spec, feds[0].Backbone.MinDelay(), parts, func(p int) ([]city.CityState, error) {
		out := make([]city.CityState, 0, len(owned[p]))
		for _, ci := range owned[p] {
			out = append(out, feds[p].CityState(ci))
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	report_(os.Stdout, cfg, spec, states, sy)

	if cfg.metricsPath != "" {
		if err := gatherChunks(cfg.metricsPath, make([]string, len(feds)), func(p int) ([]byte, error) {
			var buf []byte
			w := writerFunc(func(b []byte) { buf = append(buf, b...) })
			if err := feds[p].Observability().WritePrometheus(w); err != nil {
				return nil, err
			}
			return buf, nil
		}); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// drive runs the window loop over the partitions and gathers every
// partition's per-city records back into city order.
func drive(spec city.Spec, lookahead sim.Time, parts []shard.Part, statesOf func(p int) ([]city.CityState, error)) ([]city.CityState, *shard.Sync, error) {
	sy, err := shard.NewSync(lookahead, parts)
	if err != nil {
		return nil, nil, err
	}
	start := wallNow()
	if err := sy.Run(spec.Until()); err != nil {
		return nil, nil, err
	}
	wall := wallNow().Sub(start).Seconds()
	st := sy.Stats()
	fmt.Fprintf(os.Stderr, "df3coord: %d events in %.2fs wall (%.0f events/s, %d windows, %d boundary msgs)\n",
		st.TotalEvents, wall, float64(st.TotalEvents)/wall, st.Windows, sy.Boundary())

	states := make([]city.CityState, spec.Cities)
	seen := make([]bool, spec.Cities)
	for p := range parts {
		got, err := statesOf(p)
		if err != nil {
			return nil, nil, err
		}
		for _, cs := range got {
			if cs.City < 0 || cs.City >= spec.Cities || seen[cs.City] {
				return nil, nil, fmt.Errorf("partition %d reported city %d twice or out of range", p, cs.City)
			}
			states[cs.City] = cs
			seen[cs.City] = true
		}
	}
	for ci, ok := range seen {
		if !ok {
			return nil, nil, fmt.Errorf("no partition reported city %d", ci)
		}
	}
	return states, sy, nil
}

// report_ renders the merged result exactly as a serial run would: the
// federation table from the reassembled per-city records, the kernel
// table from the merged window stats, and the checksum line CI diffs.
func report_(w *os.File, cfg coordConfig, spec city.Spec, states []city.CityState, sy *shard.Sync) {
	fmt.Fprintf(w, "df3coord: federation of %d cities (%d buildings × %d rooms each) over %d nodes × %d shards, %.2f days\n",
		spec.Cities, spec.Buildings, spec.Rooms, cfg.nodeCount(), cfg.shards, spec.Days)

	s := city.SummarizeStates(states)
	st := sy.Stats()
	t := report.NewTable("federation", "metric", "value")
	t.Row("cities", s.Cities)
	t.Row("edge submitted", s.EdgeSubmitted)
	t.Row("edge served", s.EdgeServed)
	t.Row("dcc jobs done", s.JobsDone)
	t.Row("core-hours", s.WorkDone/3600)
	t.Row("jobs exported", s.Exported)
	t.Row("jobs imported", s.Imported)
	t.Row("events fired", int64(s.EventsFired))
	t.Write(w)

	k := report.NewTable("multi-node kernel", "metric", "value")
	k.Row("nodes", cfg.nodeCount())
	k.Row("shards per node", cfg.shards)
	k.Row("sync windows", st.Windows)
	k.Row("cross-LP messages", st.Sent)
	k.Row("cross-node messages", sy.Boundary())
	k.Row("critical-path speedup", st.Speedup())
	k.Write(w)

	fmt.Fprintf(w, checksumLine, city.ChecksumStates(states))
}

// gatherChunks writes one labeled chunk per worker to path.
func gatherChunks(path string, workers []string, chunk func(p int) ([]byte, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for p := range workers {
		label := workers[p]
		if label == "" {
			label = fmt.Sprintf("partition %d", p)
		}
		b, err := chunk(p)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(f, "# worker %d (%s)\n", p, label); err != nil {
			return err
		}
		if _, err := f.Write(b); err != nil {
			return err
		}
	}
	return f.Close()
}

// gatherSpans writes every worker's span chunk to path as one span JSONL
// trace. Each worker numbers its spans from 1, so a worker's span ids, and
// its non-zero parent ids, shift past the largest id of the workers before
// it; processes need no shift, being global already (city index + 1).
func gatherSpans(path string, workers int, chunk func(p int) ([]byte, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	var base trace.SpanID
	for p := 0; p < workers; p++ {
		b, err := chunk(p)
		if err != nil {
			return err
		}
		spans, err := trace.ReadSpansJSONL(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("worker %d: %w", p, err)
		}
		top := base
		for _, sp := range spans {
			sp.ID += base
			if sp.Parent != 0 {
				sp.Parent += base
			}
			top = max(top, sp.ID)
			if err := enc.Encode(sp); err != nil {
				return err
			}
		}
		base = top
	}
	return f.Close()
}

// writerFunc adapts a byte-sink closure to io.Writer.
type writerFunc func([]byte)

func (fn writerFunc) Write(p []byte) (int, error) {
	fn(p)
	return len(p), nil
}

// wallNow is df3coord's one wall-clock read, for throughput reporting on
// stderr only — stdout stays a pure function of the scenario.
func wallNow() time.Time {
	return time.Now() //df3:allow(detrand) coordinator wall timing is reporting-only; it never feeds the sim
}
