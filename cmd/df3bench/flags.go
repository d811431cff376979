package main

import (
	"fmt"
	"strings"

	"df3/internal/cliutil"
	"df3/internal/experiments"
)

// benchConfig is the parsed flag set, separated from main so the
// validation rules are unit-testable.
type benchConfig struct {
	quick      bool
	run        string
	list       bool
	csvDir     string
	cpuProfile string
	memProfile string
	tracePath  string

	// Shard-profiler mode.
	shardprof bool
}

// traceCapable lists the experiments that honour Options.Tracer.
var traceCapable = map[string]bool{"E18": true}

// selection resolves -run into experiment descriptors ("" = all).
func (c benchConfig) selection() ([]experiments.Experiment, error) {
	if c.run == "" {
		return experiments.All(), nil
	}
	var sel []experiments.Experiment
	for _, id := range strings.Split(c.run, ",") {
		id = strings.TrimSpace(id)
		e := experiments.ByID(id)
		if e == nil {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		sel = append(sel, *e)
	}
	return sel, nil
}

// validate rejects invalid values and mutually exclusive combinations
// before any experiment runs, so a long full-fidelity sweep cannot die on
// its last line because an output path was mistyped.
func (c benchConfig) validate() error {
	if c.list {
		if c.run != "" || c.csvDir != "" || c.cpuProfile != "" || c.memProfile != "" || c.tracePath != "" {
			return fmt.Errorf("-list takes no other flags")
		}
		return nil
	}
	if c.shardprof {
		// The profiled federation is a point of E19's sweep and
		// self-contained; only -quick and -seed tune it.
		if c.run != "" || c.tracePath != "" || c.csvDir != "" {
			return fmt.Errorf("-shardprof is a self-contained profile run; -run/-trace/-csv do not apply")
		}
		return nil
	}
	sel, err := c.selection()
	if err != nil {
		return err
	}
	if c.tracePath != "" {
		traced := false
		for _, e := range sel {
			if traceCapable[e.ID] {
				traced = true
				break
			}
		}
		if !traced {
			return fmt.Errorf("-trace needs a trace-capable experiment in the selection (have: %s)", c.run)
		}
		if err := cliutil.CheckWritableFile(c.tracePath); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	for _, p := range []struct{ flag, path string }{
		{"-cpuprofile", c.cpuProfile},
		{"-memprofile", c.memProfile},
	} {
		if p.path == "" {
			continue
		}
		if err := cliutil.CheckWritableFile(p.path); err != nil {
			return fmt.Errorf("%s: %w", p.flag, err)
		}
	}
	if c.csvDir != "" {
		if err := cliutil.CheckOutputDir(c.csvDir); err != nil {
			return fmt.Errorf("-csv: %w", err)
		}
	}
	return nil
}
