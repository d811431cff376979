// Package experiments regenerates every figure and quantified claim of the
// paper (the per-experiment index lives in DESIGN.md). Each experiment is
// a pure function from Options to a Result, so the df3bench CLI, the
// testing.B benchmarks and the integration tests all run the same code.
package experiments

import (
	"fmt"
	"io"

	"df3/internal/report"
	"df3/internal/trace"
)

// Options tune experiment cost.
type Options struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Quick shrinks city sizes and horizons for CI-speed runs. The shapes
	// under comparison are preserved; absolute values move.
	Quick bool
	// Tracer, when non-nil, turns on causal span tracing in experiments
	// that support it (currently E18): each traced scenario becomes one
	// process in the recorder, exportable as Chrome trace-event JSON.
	// Tracing is pure observation — results are identical with it on.
	Tracer *trace.Recorder
}

// DefaultOptions is the full-fidelity configuration.
func DefaultOptions() Options { return Options{Seed: 1} }

// Result is an experiment's output: printable tables plus the scalar
// findings the tests assert on.
type Result struct {
	Name   string
	Tables []*report.Table
	// Findings holds the headline scalars by key.
	Findings map[string]float64
	// Notes are free-form observations for EXPERIMENTS.md.
	Notes []string
}

func newResult(name string) *Result {
	return &Result{Name: name, Findings: map[string]float64{}}
}

// Write renders the result to w.
func (r *Result) Write(w io.Writer) error {
	fmt.Fprintf(w, "\n###### %s ######\n", r.Name)
	for _, t := range r.Tables {
		if err := t.Write(w); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// Experiment names a runnable experiment.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Options) *Result
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Fig.4: monthly mean indoor temperature Nov–May", E1Fig4Comfort},
		{"E2", "PUE: DF fleet vs classical datacenter (§II-A)", E2PUE},
		{"E3", "Three flows co-served on one fleet (Fig.3)", E3ThreeFlows},
		{"E4", "Architecture class 1 vs class 2 under load (§III-B, Fig.5)", E4ArchClasses},
		{"E5", "Peak-management policies (§III-B)", E5PeakPolicies},
		{"E6", "Seasonal capacity: heaters vs boilers (§III-C)", E6Seasonality},
		{"E7", "Heat-demand forecasting (§III-C)", E7Forecast},
		{"E8", "Edge latency: direct vs indirect vs cloud (§II-C)", E8EdgeLatency},
		{"E9", "Render-campaign replay, scaled (§III)", E9RenderCampaign},
		{"E10", "Waste heat: heaters vs boilers, summer vs winter (§III-A/C)", E10WasteHeat},
		{"E11", "Seasonal spot pricing (§IV)", E11Pricing},
		{"E12", "DF3 vs opportunistic desktop grid (§I/§V)", E12DesktopGrid},
		{"E13", "Forecast-driven SLA capacity planning (§III-C→§IV)", E13CapacityPlanning},
		{"E14", "Operator economics: DF vs datacenter (§II-A, [6])", E14Economics},
		{"E15", "Smart-grid demand response (§III-A)", E15DemandResponse},
		{"E16", "Map serving from gateway content caches (§II-A/§V)", E16ContentDelivery},
		{"E17", "Market sizing: French electric heating vs hyperscale (conclusion)", E17MarketSizing},
		{"E18", "Chaos: graceful degradation under network faults (§III-B)", E18Chaos},
		{"E19", "Shard scale: federation speedup and determinism (§V)", E19ShardScale},
		{"A1", "Ablation: hysteresis vs proportional regulator", AblationRegulator},
		{"A2", "Ablation: cluster formation (building/grid/k-means)", AblationClustering},
		{"A3", "Ablation: EDF vs FCFS edge queueing", AblationEDF},
		{"A4", "Ablation: boiler thermal buffer size", AblationBoilerBuffer},
		{"A5", "Ablation: deployment climate (Stockholm/Paris/Seville)", AblationClimate},
	}
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}
