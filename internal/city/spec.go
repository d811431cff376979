package city

import (
	"bytes"
	"encoding/json"
	"fmt"

	"df3/internal/sim"
)

// Spec is the sealed build recipe of a federation run — the multi-node
// plane's equivalent of the recipe a checkpoint seals. The coordinator
// marshals one Spec and sends the bytes to every df3node worker; each
// worker rebuilds the complete federation from it, so all nodes provably
// run the same scenario (the recipe bytes are compared verbatim, like
// checkpoint recovery compares them). Shard and node counts are
// deliberately absent: they change how the work is executed, never what
// it computes.
type Spec struct {
	Seed      uint64  `json:"seed"`
	Cities    int     `json:"cities"`
	Buildings int     `json:"buildings"`
	Rooms     int     `json:"rooms"`
	Boilers   int     `json:"boilers"`
	Days      float64 `json:"days"`
	EdgeRate  float64 `json:"edge"`
	DCCRate   float64 `json:"dcc"`
	InterCity float64 `json:"intercity"`
}

// Validate rejects specs that cannot build a federation.
func (s Spec) Validate() error {
	if s.Cities < 1 {
		return fmt.Errorf("city: spec needs at least one city, have %d", s.Cities)
	}
	if s.Buildings < 1 || s.Rooms < 1 {
		return fmt.Errorf("city: spec needs at least 1 building and 1 room, have %d×%d", s.Buildings, s.Rooms)
	}
	if s.Boilers < 0 || s.Boilers > s.Buildings {
		return fmt.Errorf("city: spec boilers %d out of range 0..%d", s.Boilers, s.Buildings)
	}
	if s.Days <= 0 {
		return fmt.Errorf("city: spec needs a positive horizon, have %v days", s.Days)
	}
	if s.EdgeRate < 0 || s.DCCRate < 0 || s.InterCity < 0 {
		return fmt.Errorf("city: spec rates must be non-negative (edge %v, dcc %v, intercity %v)",
			s.EdgeRate, s.DCCRate, s.InterCity)
	}
	return nil
}

// Marshal seals the spec as canonical JSON — the recipe bytes compared
// across nodes.
func (s Spec) Marshal() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of scalars cannot fail to marshal
	}
	return b
}

// ParseSpec is Marshal's strict inverse: unknown fields are an error, a
// recipe from a different build must not half-parse into a different
// scenario.
func ParseSpec(b []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("city: spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Horizon is the traffic horizon: generators stop at Horizon, and the
// run drains until Until.
func (s Spec) Horizon() sim.Time { return sim.Time(s.Days) * sim.Day }

// Until is the run's simulated end: the traffic horizon plus a six-hour
// drain margin, the same margin df3sim gives a single city.
func (s Spec) Until() sim.Time { return s.Horizon() + 6*sim.Hour }

// Build constructs the federation the spec describes on a kernel with
// the given local shard count, with every traffic stream started. The
// result is deterministic in the spec alone: two nodes building the same
// sealed bytes hold the same scenario.
func (s Spec) Build(shards int) *Federation {
	ccfg := DefaultConfig()
	ccfg.Seed = s.Seed
	ccfg.Buildings = s.Buildings
	ccfg.RoomsPerBuilding = s.Rooms
	ccfg.BoilerBuildings = s.Boilers
	f := BuildFederation(FederationConfig{
		Seed: s.Seed, Cities: s.Cities, Shards: shards, City: ccfg,
	})
	h := s.Horizon()
	if s.EdgeRate > 0 {
		f.StartEdgeTraffic(h, s.EdgeRate)
	}
	if s.DCCRate > 0 {
		f.StartDCCTraffic(h, s.DCCRate)
	}
	if s.InterCity > 0 && s.Cities > 1 {
		f.StartInterCityDCC(h, s.InterCity)
	}
	return f
}
