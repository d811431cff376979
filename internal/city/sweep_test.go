package city

import (
	"testing"

	"df3/internal/rng"
	"df3/internal/shard"
	"df3/internal/sim"
)

// sweepShape is one seeded federation shape of the determinism sweep.
// Faults selects worker, link and gateway failures plus message loss;
// without it the middleware runs a 0.3 s response timeout with retries
// instead. A failing shape prints as %+v, which is enough to rebuild it
// as a fixed regression case.
type sweepShape struct {
	Seed                     uint64
	Cities, Buildings, Rooms int
	Boilers                  int
	Faults                   bool
}

// sweepShapes draws n shapes from a fixed seed: 1–6 cities of 1–4
// buildings × 1–4 rooms, any number of them boiler plants, alternating
// fault and timeout shapes.
func sweepShapes(n int) []sweepShape {
	s := rng.New(24)
	shapes := make([]sweepShape, n)
	for i := range shapes {
		sh := sweepShape{
			Seed:      s.Uint64(),
			Cities:    1 + s.Intn(6),
			Buildings: 1 + s.Intn(4),
			Rooms:     1 + s.Intn(4),
			Faults:    i%2 == 0,
		}
		sh.Boilers = s.Intn(sh.Buildings + 1)
		shapes[i] = sh
	}
	return shapes
}

// build wires the shape's federation on the given shard count with its
// traffic started, and returns the time to run it to. Timeout shapes run
// four times the edge load, so some requests outlive the timeout.
func (sh sweepShape) build(shards int) (*Federation, sim.Time) {
	const horizon = 3 * sim.Hour
	cfg := DefaultConfig()
	cfg.Buildings = sh.Buildings
	cfg.RoomsPerBuilding = sh.Rooms
	cfg.BoilerBuildings = sh.Boilers
	cfg.DatacenterNodes = 2
	edgeRate := 1.0
	if sh.Faults {
		cfg.MTBF = 2 * sim.Hour
		cfg.MTTR = 20 * sim.Minute
		cfg.LinkMTBF = map[string]sim.Time{"metro": sim.Hour, "lan": 4 * sim.Hour}
		cfg.GatewayMTBF = 2 * sim.Hour
		cfg.LinkLoss = map[string]float64{"lan": 0.02, "metro": 0.02, "internet": 0.02, "fibre": 0.02}
	} else {
		cfg.Middleware.ResponseTimeout = 0.3
		cfg.Middleware.EdgeMaxRetries = 2
		edgeRate = 4
	}
	f := BuildFederation(FederationConfig{Seed: sh.Seed, Cities: sh.Cities, Shards: shards, City: cfg})
	f.StartEdgeTraffic(horizon, edgeRate)
	f.StartDCCTraffic(horizon, 2)
	f.StartInterCityDCC(horizon, 6)
	return f, horizon + sim.Hour
}

// TestFederationSweepDeterminism runs seeded random federation shapes,
// with and without faults, serially, at 2 and 3 shards, and as two
// restricted partitions under shard.Sync (the multi-node shape in
// process). Every arm must reach the serial checksum.
func TestFederationSweepDeterminism(t *testing.T) {
	var faulted, timedOut, exported int64
	for i, sh := range sweepShapes(8) {
		serial, until := sh.build(1)
		serial.Run(until)
		want := serial.Checksum()
		exported += serial.Summarize().Exported
		for _, c := range serial.Cities {
			faulted += c.Outages.Value() + c.LinkOutages.Value() + c.GatewayOutages.Value() + c.MessagesLost.Value()
			timedOut += c.MW.Edge.TimedOut.Value()
		}

		for _, shards := range []int{2, 3} {
			f, _ := sh.build(shards)
			f.Run(until)
			if got := f.Checksum(); got != want {
				t.Errorf("shape %d %+v: %d shards checksum %#016x, want %#016x (serial)", i, sh, shards, got, want)
			}
		}

		assign := shard.PartitionContiguous(sh.Cities, min(2, sh.Cities), nil)
		feds := make([]*Federation, 0, 2)
		parts := make([]shard.Part, 0, 2)
		for p := 0; p <= assign[len(assign)-1]; p++ {
			var owned []int
			for ci, a := range assign {
				if a == p {
					owned = append(owned, ci)
				}
			}
			f, _ := sh.build(2)
			f.Restrict(owned)
			feds = append(feds, f)
			parts = append(parts, f.Kernel)
		}
		sy, err := shard.NewSync(feds[0].Backbone.MinDelay(), parts)
		if err == nil {
			err = sy.Run(until)
		}
		if err != nil {
			t.Errorf("shape %d %+v: partitioned run: %v", i, sh, err)
			continue
		}
		states := make([]CityState, sh.Cities)
		for ci := range states {
			states[ci] = feds[assign[ci]].CityState(ci)
		}
		if got := ChecksumStates(states); got != want {
			t.Errorf("shape %d %+v: %d partitions checksum %#016x, want %#016x (serial)", i, sh, len(parts), got, want)
		}
	}
	if faulted == 0 || timedOut == 0 || exported == 0 {
		t.Fatalf("sweep injected %d faults, timed out %d requests and exported %d inter-city jobs; a zero means a path went untested",
			faulted, timedOut, exported)
	}
}
