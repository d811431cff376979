package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"df3/internal/city"
	"df3/internal/shard"
	"df3/internal/sim"
	"df3/internal/wire"
)

// fed-wire runs df3coord's default scenario as two partitions, each a
// wire.Serve session on a loopback TCP connection inside this process,
// driven by shard.Sync over two wire.Clients. One operation is one whole
// federation run; one item is one simulated city-hour up to Until.

const (
	fedPartitions = 2
	fedDays       = 0.5
	wireTimeout   = 60 * time.Second
	// fedDrySetups extra dial-and-assign rounds, ended by Bye without a
	// run, join every run's own set-up in the setup_s median: one set-up
	// takes a few milliseconds, too short to repeat within a tenth alone.
	fedDrySetups = 16
)

// fedSpec is df3coord's default scenario over half a day.
func fedSpec(seed uint64) city.Spec {
	return city.Spec{
		Seed: seed, Cities: 8, Buildings: 4, Rooms: 6, Days: fedDays,
		EdgeRate: 1, DCCRate: 6, InterCity: 2,
	}
}

// cityHours is the item count of one federation run: every city
// simulated from 0 to Until.
func cityHours(s city.Spec) float64 {
	return float64(s.Cities) * float64(s.Until()) / float64(sim.Hour)
}

// fedSession is one dialled-and-assigned federation: a client and a
// serving worker per partition.
type fedSession struct {
	clients []*wire.Client
	served  []chan error
	la      sim.Time
	// Traced sessions only: client-side wire bytes and a clock per
	// worker.
	bytes atomic.Int64
	clk   []*workerClock
}

// dialFederation opens one loopback session per partition and assigns
// it, the way df3coord's runRemote does. With a tracer the connections
// are wrapped to count bytes and clock the workers; without one, Serve
// and NewClient get the bare connections.
func dialFederation(ln net.Listener, spec city.Spec, owned [][]int, tr *tracer) (*fedSession, error) {
	s := &fedSession{}
	recipe := spec.Marshal()
	for i := range owned {
		cc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		sc, err := ln.Accept()
		if err != nil {
			cc.Close()
			s.close()
			return nil, err
		}
		worker, client := sc, cc
		if tr != nil {
			clk := &workerClock{}
			s.clk = append(s.clk, clk)
			worker = &workerConn{Conn: sc, clk: clk}
			client = countingConn{Conn: cc, n: &s.bytes}
		}
		done := make(chan error, 1)
		go func() {
			done <- wire.Serve(worker, wire.ServeOptions{Timeout: wireTimeout})
			sc.Close()
		}()
		s.served = append(s.served, done)
		cl, err := wire.NewClient(client, fmt.Sprintf("partition %d", i), wireTimeout)
		if err != nil {
			cc.Close()
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
		r, err := cl.Assign(wire.Assign{Recipe: recipe, Shards: 1, Owned: owned[i]})
		if err != nil {
			s.close()
			return nil, err
		}
		if i == 0 {
			s.la = r.Lookahead
		} else if r.Lookahead != s.la {
			s.close()
			return nil, fmt.Errorf("partition %d lookahead %v, partition 0 %v", i, r.Lookahead, s.la)
		}
	}
	return s, nil
}

// close tears the session down without ceremony (error paths).
func (s *fedSession) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	for _, d := range s.served {
		<-d
	}
}

// bye ends every worker session cleanly and waits for it to return.
func (s *fedSession) bye() error {
	var first error
	for i, cl := range s.clients {
		if err := cl.Bye(); err != nil && first == nil {
			first = err
		}
		if err := <-s.served[i]; err != nil && first == nil {
			first = fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return first
}

// mergeStates gathers every partition's per-city records back into city
// order, rejecting duplicates and gaps as df3coord does.
func mergeStates(cities int, perPart [][]city.CityState) ([]city.CityState, error) {
	states := make([]city.CityState, cities)
	seen := make([]bool, cities)
	for p, got := range perPart {
		for _, cs := range got {
			if cs.City < 0 || cs.City >= cities || seen[cs.City] {
				return nil, fmt.Errorf("partition %d reported city %d twice or out of range", p, cs.City)
			}
			states[cs.City] = cs
			seen[cs.City] = true
		}
	}
	for ci, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("no partition reported city %d", ci)
		}
	}
	return states, nil
}

// referenceChecksum runs the same spec in process over Kernel parts — the
// df3coord reference mode a wire run must reproduce.
func referenceChecksum(spec city.Spec, owned [][]int) (uint64, error) {
	feds := make([]*city.Federation, len(owned))
	parts := make([]shard.Part, len(owned))
	for p := range owned {
		f := spec.Build(1)
		f.Restrict(owned[p])
		feds[p] = f
		parts[p] = f.Kernel
	}
	sy, err := shard.NewSync(feds[0].Backbone.MinDelay(), parts)
	if err != nil {
		return 0, err
	}
	if err := sy.Run(spec.Until()); err != nil {
		return 0, err
	}
	perPart := make([][]city.CityState, len(owned))
	for p := range owned {
		for _, ci := range owned[p] {
			perPart[p] = append(perPart[p], feds[p].CityState(ci))
		}
	}
	states, err := mergeStates(spec.Cities, perPart)
	if err != nil {
		return 0, err
	}
	return city.ChecksumStates(states), nil
}

// fedRun is one timed federation run's observations.
type fedRun struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gc       uint32
	checksum uint64
	stats    shard.Stats
	boundary int64
	op       int64 // the run's span (traced runs)
	bytes    int64
	busy     time.Duration
	wait     time.Duration
}

// runFederation drives one assigned session to Until and merges its
// states. With a tracer the clients are wrapped in partProbes.
func runFederation(s *fedSession, spec city.Spec, tr *tracer) (fedRun, error) {
	var r fedRun
	r.op = tr.begin("fed.run", 0)
	defer tr.end(r.op)
	parts := make([]shard.Part, len(s.clients))
	for i, cl := range s.clients {
		parts[i] = cl
		if tr != nil {
			parts[i] = &partProbe{Part: cl, tr: tr, parent: r.op}
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	bytes0 := s.bytes.Load()
	u0 := readUsage()
	t0 := time.Now()
	for _, c := range s.clk {
		c.from.Store(t0.UnixNano())
	}
	sy, err := shard.NewSync(s.la, parts)
	if err != nil {
		return r, err
	}
	if err := sy.Run(spec.Until()); err != nil {
		return r, err
	}
	perPart := make([][]city.CityState, len(s.clients))
	for i, cl := range s.clients {
		if perPart[i], err = cl.States(); err != nil {
			return r, err
		}
	}
	states, err := mergeStates(spec.Cities, perPart)
	if err != nil {
		return r, err
	}
	r.checksum = city.ChecksumStates(states)
	r.wall = time.Since(t0)
	r.cpu = readUsage().cpu - u0.cpu
	r.bytes = s.bytes.Load() - bytes0
	for _, c := range s.clk {
		r.busy += time.Duration(c.busy.Load())
		r.wait += time.Duration(c.wait.Load())
	}
	runtime.ReadMemStats(&ms1)
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	r.gc = ms1.NumGC - ms0.NumGC
	r.stats = sy.Stats()
	r.boundary = sy.Boundary()
	return r, nil
}

func runFedWire(cfg config, tr *tracer) (*outcome, error) {
	spec := fedSpec(cfg.seed)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	assign := shard.PartitionContiguous(spec.Cities, fedPartitions, nil)
	owned := make([][]int, fedPartitions)
	for ci, p := range assign {
		owned[p] = append(owned[p], ci)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	o := &outcome{opName: "federation runs", layer: map[string]float64{}}
	items := cityHours(spec)
	o.notes = append(o.notes, fmt.Sprintf(
		"input: %d cities × %d buildings × %d rooms, %.2f days (+6 h drain) = %.0f city-hours per run, %d partitions × 1 shard over loopback TCP",
		spec.Cities, spec.Buildings, spec.Rooms, spec.Days, items, fedPartitions))

	for i := 0; i < fedDrySetups; i++ {
		t0 := time.Now()
		s, err := dialFederation(ln, spec, owned, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		if err := s.bye(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}

	var runs []fedRun
	var sums []uint64
	var tracedRuns []fedRun
	start := time.Now()
	for i := 0; i < minOps(cfg) || time.Since(start) < cfg.seconds; i++ {
		var rtr *tracer
		if cfg.trace && i%2 == 1 {
			rtr = tr
		}
		t0 := time.Now()
		s, err := dialFederation(ln, spec, owned, rtr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		o.attempted++
		r, err := runFederation(s, spec, rtr)
		if err != nil {
			s.close()
			o.failed++
			fmt.Printf("# run %d failed: %v\n", i, err)
			continue
		}
		if err := s.bye(); err != nil {
			o.failed++
			fmt.Printf("# run %d shutdown failed: %v\n", i, err)
			continue
		}
		sums = append(sums, r.checksum)
		if rtr != nil {
			tracedRuns = append(tracedRuns, r)
			o.traced = append(o.traced, r.wall)
			continue
		}
		runs = append(runs, r)
		o.ops = append(o.ops, r.wall)
		o.items += items
		o.timed += r.wall
		o.cpu += r.cpu
	}
	o.rssKiB = readUsage().maxRSS

	want, err := referenceChecksum(spec, owned)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	matched := 0
	for i, got := range sums {
		if got == want {
			matched++
		} else {
			fmt.Printf("# run %d checksum 0x%016x, in-process reference 0x%016x\n", i, got, want)
		}
	}
	o.correct = o.failed == 0 && matched > 0 && matched == len(sums)
	o.notes = append(o.notes, fmt.Sprintf("checksum: %d of %d runs match the in-process reference 0x%016x", matched, len(sums), want))
	if len(runs) > 0 {
		st := runs[0].stats
		o.notes = append(o.notes, fmt.Sprintf(
			"per run: %d events, %d windows, %d boundary msgs; critical-path speedup bound %.3f× beside measured median wall %.3f s",
			st.TotalEvents, st.Windows, runs[0].boundary, st.Speedup(), median(in(o.ops, time.Second))))
	}
	if cfg.trace {
		fedLayers(o, tracedRuns, items, tr.finished())
	}
	return o, nil
}

// fedLayers fills the per-layer metrics from the traced runs and their
// spans: per-run counts (identical across runs of one seed) and medians
// of timings.
func fedLayers(o *outcome, runs []fedRun, items float64, spans []span) {
	if len(runs) == 0 {
		return
	}
	rtt := append(durations(spans, spanNextEvent, time.Microsecond), durations(spans, spanDeliver, time.Microsecond)...)
	perRun := countPerOp(spans, spanNextEvent, spanRunWindow, spanDeliver)
	var trips, busy, wait, bytes, alloc, gc []float64
	for _, r := range runs {
		trips = append(trips, float64(perRun[r.op]))
		busy = append(busy, r.busy.Seconds())
		wait = append(wait, r.wait.Seconds())
		bytes = append(bytes, float64(r.bytes))
		alloc = append(alloc, float64(r.alloc)/1024/items)
		gc = append(gc, float64(r.gc))
	}
	st := runs[0].stats
	o.layer["shard.windows"] = float64(st.Windows)
	o.layer["wire.round_trips"] = median(trips)
	o.layer["wire.rtt_us_p50"] = median(rtt)
	o.layer["wire.window_us_p50"] = median(durations(spans, spanRunWindow, time.Microsecond))
	o.layer["wire.bytes"] = median(bytes)
	o.layer["wire.worker_busy_s"] = median(busy)
	o.layer["wire.worker_wait_s"] = median(wait)
	o.layer["shard.boundary_msgs"] = float64(runs[0].boundary)
	o.layer["sim.events"] = float64(st.TotalEvents)
	o.layer["shard.speedup"] = st.Speedup()
	o.layer["runtime.alloc_kb_per_item"] = median(alloc)
	o.layer["runtime.gc_cycles"] = median(gc)
	o.notes = append(o.notes, fmt.Sprintf(
		"wire: %.0f round trips per run (%.2f per window over both workers), worker busy %.3f s / wait %.3f s per run",
		median(trips), median(trips)/float64(st.Windows), median(busy), median(wait)))
}
