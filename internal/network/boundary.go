package network

import (
	"df3/internal/sim"
	"df3/internal/units"
)

// This file models the inter-city backbone of a sharded federation: the
// wide-area fabric between building fleets that city-local Fabrics never
// see. Each city keeps its own Fabric on its own engine; traffic that
// leaves a city takes the backbone's Delay instead, and the backbone's
// minimum end-to-end delay is what the shard kernel derives its
// conservative lookahead from. The backbone keeps no counters: the shard
// kernel counts cross-LP and cross-shard messages, and the federation
// counts each city's exports.

// BackboneSpec parameterises the federation WAN.
type BackboneSpec struct {
	// Latency is the propagation + protocol delay between two cities.
	Latency sim.Time
	// Bandwidth is the per-pair serialisation rate in bytes/second.
	Bandwidth float64
	// Staging is the dispatcher's store-and-forward floor: inter-city
	// payloads are batch work, staged and forwarded on this cadence
	// rather than streamed. It dominates the minimum delay and is what
	// buys the shard kernel a usable lookahead.
	Staging sim.Time
}

// DefaultBackbone is a national fibre WAN: 12 ms between metros, 2 Gbit/s
// per city pair, 30 s dispatcher staging.
func DefaultBackbone() BackboneSpec {
	return BackboneSpec{Latency: 0.012, Bandwidth: 250e6, Staging: 30}
}

// MinDelay returns the smallest possible end-to-end delay across the
// backbone — staging plus propagation for a zero-byte payload. The shard
// kernel's lookahead derives from it.
func (s BackboneSpec) MinDelay() sim.Time {
	return s.Staging + s.Latency
}

// Delay returns the modeled transfer time for a payload between two cities:
// staging floor, propagation, and serialisation at the pair bandwidth.
func (s BackboneSpec) Delay(size units.Byte) sim.Time {
	return s.Staging + s.Latency + sim.Time(float64(size)/s.Bandwidth)
}
