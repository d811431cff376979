// Package df3 is a full reimplementation of the DF3 model from "How Future
// Buildings Could Redefine Distributed Computing" (Ngoko, Sainthérant,
// Cérin, Trystram — IPDPS Workshops 2018): one platform serving district
// heating, distributed cloud computing and edge computing from the same
// fleet of data-furnace servers.
//
// The library is organised as a deterministic discrete-event simulator
// (internal/sim) under physical substrates (thermal, weather, power,
// server, network), the DF3 middleware itself (internal/core), the
// scenario layer (internal/city), comparators (internal/baseline) and the
// experiment harness (internal/experiments). See DESIGN.md for the system
// inventory and the per-experiment index, EXPERIMENTS.md for measured
// results, and README.md for a tour.
//
// Entry points:
//
//	cmd/df3sim    — run one city scenario from flags
//	cmd/df3coord  — run a federation of cities, in process or over df3node workers
//	cmd/df3bench  — regenerate every figure/claim of the paper
//	examples/     — five runnable walkthroughs
//	bench_test.go — testing.B benchmarks, one per experiment
package df3
