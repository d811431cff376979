// Package obs is the live observability plane: an always-on flight
// recorder holding the most recent completed spans at bounded memory
// (flight.go), the deterministic head-sampling policy that decides which
// of them it keeps (this file), and a bridge from the Go runtime's own
// metrics into the df3 registry (runtime.go).
//
// Everything here is pure observation. Sampling decisions are hash-based
// — no RNG stream is consumed, no wall clock is read — so a simulation
// with the flight recorder attached is byte-identical to one without it
// (checksum-asserted in city tests).
package obs

// Policy decides which completed spans the flight recorder retains, for
// every span source alike. The rate is "keep 1 in N": 1 keeps everything,
// 100 keeps one in a hundred, a negative rate keeps nothing; the zero
// Policy keeps everything.
//
// Decisions are deterministic functions of (class, key): the same request
// sampled twice — live and on replay — resolves identically. That is what
// lets sampling live outside the determinism boundary: it steers only
// what is observed, never what runs.
type Policy struct {
	// Default is the keep-1-in-N rate.
	Default int
}

// Keep reports whether a span of the given class (its stage) with
// correlation key (normally the trace id) is retained. A zero key hashes
// the class name instead, so uncorrelated spans (machine windows) still
// sample at the configured rate class-by-class rather than all-or-nothing
// globally.
func (p Policy) Keep(class string, key uint64) bool {
	switch {
	case p.Default < 0:
		return false
	case p.Default <= 1:
		return true
	}
	if key == 0 {
		key = hashString(class)
	}
	return mix(key)%uint64(p.Default) == 0
}

// hashString is FNV-1a over the class name.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the SplitMix64 finalizer: sequential keys (injection sequence
// numbers) land uniformly across residues, so "1 in N" keeps close to 1/N
// of a sequential id space instead of a single stripe.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
