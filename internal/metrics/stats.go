// Package metrics collects the statistics the benchmark harness reports:
// streaming moments, exact quantiles, time-weighted averages and
// time-series samplers.
//
// Everything here is designed for the single-threaded simulator: no locks,
// no wall-clock. Quantiles are exact (sorting a retained sample) because the
// experiments are small enough that fidelity beats the memory savings of a
// sketch; P2 estimates a quantile in O(1) memory for the rare metric with
// millions of observations.
package metrics

import (
	"math"
	"sort"
)

// Stats accumulates streaming count/mean/variance/min/max using Welford's
// algorithm. The zero value is ready to use.
type Stats struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Observe adds one observation.
func (s *Stats) Observe(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// Count returns the number of observations.
func (s *Stats) Count() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Stats) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Stats) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stats) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 with none.
func (s *Stats) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 with none.
func (s *Stats) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Sum returns n·mean, the total of all observations.
func (s *Stats) Sum() float64 { return s.mean * float64(s.n) }

// Merge folds other into s, as if every observation of other had been
// observed by s. Used to combine per-worker statistics.
func (s *Stats) Merge(other *Stats) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	d := other.mean - s.mean
	tot := n1 + n2
	s.m2 += other.m2 + d*d*n1*n2/tot
	s.mean += d * n2 / tot
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Sample retains every observation and answers exact quantiles, unless
// switched to running statistics only (StatsOnly).
type Sample struct {
	Stats
	values    []float64
	sorted    bool
	statsOnly bool
}

// StatsOnly switches s to running statistics only, for a long-lived
// process that must not grow with every observation: Observe still feeds
// Stats, but no value is retained (any already retained are dropped), and
// Quantile returns NaN, which no reader can take for an exact quantile.
func (s *Sample) StatsOnly() {
	s.statsOnly = true
	s.values = nil
	s.sorted = false
}

// Observe adds one observation.
func (s *Sample) Observe(v float64) {
	s.Stats.Observe(v)
	if s.statsOnly {
		return
	}
	s.values = append(s.values, v)
	s.sorted = false
}

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation on
// the sorted sample. With no observations it returns 0; after StatsOnly,
// NaN.
func (s *Sample) Quantile(q float64) float64 {
	if s.statsOnly {
		return math.NaN()
	}
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[len(s.values)-1]
	}
	pos := q * float64(len(s.values)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.values) {
		return s.values[lo]
	}
	return s.values[lo]*(1-frac) + s.values[lo+1]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P99 returns the 0.99 quantile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// P95 returns the 0.95 quantile.
func (s *Sample) P95() float64 { return s.Quantile(0.95) }

// Values returns the retained observations in observation order until the
// first Quantile call, sorted order after (none after StatsOnly). Callers
// must not mutate it.
func (s *Sample) Values() []float64 { return s.values }
