// Command df3bench regenerates the paper's figures and quantified claims.
// Every experiment in DESIGN.md's per-experiment index (E1–E19) and every
// ablation (A1–A5) is runnable by ID:
//
//	df3bench                 # run everything at full fidelity
//	df3bench -quick          # CI-speed versions (same shapes)
//	df3bench -run E1,E8      # a subset
//	df3bench -list           # show the index
//	df3bench -seed 7         # different random universe
//	df3bench -run E18 -trace chaos.json   # span-trace the chaos sweep for Perfetto
//	df3bench -shardprof                   # profile E19's 10-city federation on 4 shards
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"df3/internal/experiments"
	"df3/internal/trace"
)

func main() {
	var cfg benchConfig
	flag.BoolVar(&cfg.quick, "quick", false, "run reduced-size experiments (same shapes, minutes faster)")
	flag.StringVar(&cfg.run, "run", "", "comma-separated experiment IDs (default: all)")
	flag.BoolVar(&cfg.list, "list", false, "list experiments and exit")
	seed := flag.Uint64("seed", 1, "random seed for every stochastic component")
	flag.StringVar(&cfg.csvDir, "csv", "", "also write every table as CSV into this directory")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile taken after the last experiment to this file")
	flag.StringVar(&cfg.tracePath, "trace", "", "record causal spans in trace-capable experiments (E18) and write Chrome trace-event JSON to this file")
	flag.BoolVar(&cfg.shardprof, "shardprof", false, "profile E19's 10-city federation on 4 shards (-quick: 4 cities on 2): per-shard busy/idle, barrier limiters, lookahead-bound pairs")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "df3bench: %v\n", err)
		os.Exit(2)
	}

	if cfg.list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return
	}

	if cfg.shardprof {
		runShardprofMode(cfg, *seed)
		return
	}

	selected, err := cfg.selection()
	if err != nil {
		fmt.Fprintf(os.Stderr, "df3bench: %v\n", err)
		os.Exit(2)
	}

	opts := experiments.Options{Seed: *seed, Quick: cfg.quick}
	if cfg.tracePath != "" {
		opts.Tracer = trace.NewRecorder(0)
	}
	mode := "full"
	if cfg.quick {
		mode = "quick"
	}
	fmt.Printf("df3bench: %d experiments, %s mode, seed %d\n", len(selected), mode, *seed)

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "df3bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "df3bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	for _, e := range selected {
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now() //df3:allow(detrand) wall-clock timing of the harness is reporting-only; it never feeds the sim
		res := e.Run(opts)
		wall := time.Since(start).Seconds() //df3:allow(detrand) wall-clock timing of the harness is reporting-only; it never feeds the sim
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if err := res.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "df3bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if cfg.csvDir != "" {
			if err := writeCSVs(cfg.csvDir, e.ID, res); err != nil {
				fmt.Fprintf(os.Stderr, "df3bench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		fmt.Printf("[%s finished in %.1fs, %.1f MB allocated in %d allocs]\n",
			e.ID, wall,
			float64(after.TotalAlloc-before.TotalAlloc)/1e6,
			after.Mallocs-before.Mallocs)
	}

	if opts.Tracer != nil {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "df3bench: %v\n", err)
			os.Exit(1)
		}
		err = opts.Tracer.WriteChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "df3bench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[%d spans written to %s — open in Perfetto (ui.perfetto.dev)]\n",
			len(opts.Tracer.Spans()), cfg.tracePath)
	}

	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "df3bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "df3bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeCSVs stores every table of a result as <dir>/<ID>_<n>.csv.
func writeCSVs(dir, id string, res *experiments.Result) error {
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", id, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = t.CSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
