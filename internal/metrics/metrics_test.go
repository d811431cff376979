package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStatsBasics(t *testing.T) {
	var s Stats
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Errorf("count = %d", s.Count())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", s.Mean())
	}
	if !almost(s.Variance(), 32.0/7, 1e-12) {
		t.Errorf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !almost(s.Sum(), 40, 1e-9) {
		t.Errorf("sum = %v", s.Sum())
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Variance() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty stats should be all zero")
	}
}

func TestStatsSingle(t *testing.T) {
	var s Stats
	s.Observe(42)
	if s.Variance() != 0 {
		t.Errorf("single-observation variance = %v", s.Variance())
	}
	if s.Min() != 42 || s.Max() != 42 {
		t.Error("single observation min/max wrong")
	}
}

// Property: merging two stats equals observing the concatenation.
func TestStatsMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if x == x && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var s1, s2, all Stats
		for _, v := range a {
			s1.Observe(v)
			all.Observe(v)
		}
		for _, v := range b {
			s2.Observe(v)
			all.Observe(v)
		}
		s1.Merge(&s2)
		if s1.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(all.Mean()))
		if !almost(s1.Mean(), all.Mean(), tol) {
			return false
		}
		return almost(s1.Variance(), all.Variance(), 1e-4*(1+all.Variance()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("q1 = %v", got)
	}
	if got := s.Median(); !almost(got, 50.5, 1e-9) {
		t.Errorf("median = %v", got)
	}
	if got := s.P99(); got < 99 || got > 100 {
		t.Errorf("p99 = %v", got)
	}
}

func TestSampleQuantileEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 {
		t.Error("empty sample quantile should be 0")
	}
}

func TestSampleObserveAfterQuantile(t *testing.T) {
	var s Sample
	s.Observe(5)
	s.Observe(1)
	_ = s.Median()
	s.Observe(3)
	if got := s.Median(); got != 3 {
		t.Errorf("median after re-observe = %v", got)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, qa, qb float64) bool {
		var s Sample
		for _, x := range xs {
			if x != x {
				continue
			}
			s.Observe(x)
		}
		if s.Count() == 0 {
			return true
		}
		norm := func(q float64) float64 {
			q = math.Abs(q)
			return q - math.Floor(q)
		}
		lo, hi := norm(qa), norm(qb)
		if lo > hi {
			lo, hi = hi, lo
		}
		vlo, vhi := s.Quantile(lo), s.Quantile(hi)
		return vlo <= vhi && vlo >= s.Min() && vhi <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeriesBucket(t *testing.T) {
	var s Series
	// Two "months" of length 10: values 1,3 and 5,7.
	s.Add(1, 1)
	s.Add(5, 3)
	s.Add(11, 5)
	s.Add(15, 7)
	keys, means := s.Bucket(func(t float64) int { return int(t / 10) })
	if len(keys) != 2 || keys[0] != 0 || keys[1] != 1 {
		t.Fatalf("keys = %v", keys)
	}
	if means[0] != 2 || means[1] != 6 {
		t.Errorf("means = %v", means)
	}
}

func TestSeriesMeanAndLast(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Last().V != 0 {
		t.Error("empty series should report zeros")
	}
	s.Add(0, 10)
	s.Add(1, 20)
	if s.Mean() != 15 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Last().V != 20 || s.Last().T != 1 {
		t.Errorf("last = %+v", s.Last())
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)  // 0 for 10s
	w.Set(10, 4) // 4 for 10s
	w.Set(20, 2) // 2 for 10s
	if got := w.Average(30); !almost(got, 2, 1e-12) {
		t.Errorf("average = %v, want 2", got)
	}
	if w.Value() != 2 {
		t.Errorf("value = %v", w.Value())
	}
	if w.Max() != 4 {
		t.Errorf("max = %v", w.Max())
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)
	w.Add(5, 2) // now 3
	w.Add(10, -1)
	if w.Value() != 2 {
		t.Errorf("value after adds = %v", w.Value())
	}
	// avg over [0,10] = (1*5 + 3*5)/10 = 2
	if got := w.Average(10); !almost(got, 2, 1e-12) {
		t.Errorf("average = %v", got)
	}
}

func TestTimeWeightedBeforeStart(t *testing.T) {
	var w TimeWeighted
	if w.Average(100) != 0 {
		t.Error("average of never-set signal should be 0")
	}
	w.Set(50, 7)
	if w.Average(50) != 7 {
		t.Error("average at the set instant should be the value")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	c.Addn(3)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if Rate(c.Value(), 10) != 0.5 {
		t.Errorf("rate = %v", Rate(c.Value(), 10))
	}
	if Rate(1, 0) != 0 {
		t.Error("rate with zero total should be 0")
	}
}

// Property: a sample's quantile sweep reproduces the sorted data.
func TestQuantileSweepProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		var kept []float64
		for _, x := range xs {
			if x != x {
				continue
			}
			s.Observe(x)
			kept = append(kept, x)
		}
		if len(kept) == 0 {
			return true
		}
		sort.Float64s(kept)
		for i, want := range kept {
			q := float64(i) / float64(len(kept)-1)
			if len(kept) == 1 {
				q = 0.5
			}
			got := s.Quantile(q)
			if got < kept[0] || got > kept[len(kept)-1] {
				return false
			}
			_ = want
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
