package main

import (
	"fmt"

	"df3/internal/cliutil"
)

// simConfig is the parsed flag set, separated from main so the validation
// rules are unit-testable.
type simConfig struct {
	buildings, rooms, boilers int
	days                      float64
	edgeRate, dccRate         float64
	climate, start            string
	arch, policy              string
	csvPath, spansPath        string
	mtbf                      float64
}

var (
	validClimates = map[string]bool{"paris": true, "stockholm": true, "seville": true}
	validStarts   = map[string]bool{"jan": true, "nov": true, "jul": true}
	validArchs    = map[string]bool{"shared": true, "dedicated": true}
	validPolicies = map[string]bool{
		"smart": true, "reject": true, "delay": true,
		"preempt": true, "vertical": true, "horizontal": true,
	}
)

// validate rejects invalid values and mutually exclusive combinations
// before the scenario is built, so a month-long simulation cannot die at
// its final report because an output path was mistyped.
func (c simConfig) validate() error {
	if c.buildings < 1 || c.rooms < 1 {
		return fmt.Errorf("need at least 1 building and 1 room (have %d×%d)", c.buildings, c.rooms)
	}
	if c.boilers < 0 || c.boilers > c.buildings {
		return fmt.Errorf("-boilers %d out of range 0..%d", c.boilers, c.buildings)
	}
	if c.days <= 0 {
		return fmt.Errorf("-days %v: need a positive horizon", c.days)
	}
	if c.edgeRate < 0 || c.dccRate < 0 || c.mtbf < 0 {
		return fmt.Errorf("rates must be non-negative (edge %v, dcc %v, mtbf %v)",
			c.edgeRate, c.dccRate, c.mtbf)
	}
	if !validClimates[c.climate] {
		return fmt.Errorf("unknown climate %q (paris|stockholm|seville)", c.climate)
	}
	if !validStarts[c.start] {
		return fmt.Errorf("unknown start %q (jan|nov|jul)", c.start)
	}
	if !validArchs[c.arch] {
		return fmt.Errorf("unknown arch %q (shared|dedicated)", c.arch)
	}
	if !validPolicies[c.policy] {
		return fmt.Errorf("unknown offload policy %q", c.policy)
	}
	for _, p := range []struct{ flag, path string }{
		{"-csv", c.csvPath},
		{"-spans", c.spansPath},
	} {
		if p.path == "" {
			continue
		}
		if err := cliutil.CheckWritableFile(p.path); err != nil {
			return fmt.Errorf("%s: %w", p.flag, err)
		}
	}
	return nil
}
