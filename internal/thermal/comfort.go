package thermal

import (
	"df3/internal/metrics"
	"df3/internal/sim"
	"df3/internal/units"
)

// Comfort accumulates thermal-comfort statistics for a zone against its
// setpoint — the quantity behind the paper's Fig. 4 and its claim that DF
// servers "reach the same level of comfort as other heating systems" [7].
//
// Heating-season semantics: a tick is comfortable when the zone is no more
// than Band below the active setpoint and not absolutely overheated
// (above OverheatLimit). Sitting above a *setback* setpoint is not
// discomfort — a slowly cooling room at 19 °C against a 17 °C night
// setback is fine.
//
// The temperature record is a (sum, count) pair per calendar month, keyed
// when each tick is observed, so a tracker's size does not grow with the
// simulated horizon: a season-long run keeps twelve sums per room, not one
// point per control tick.
type Comfort struct {
	// Band is the tolerated shortfall below the setpoint.
	Band float64
	// OverheatLimit is the absolute temperature above which any tick
	// counts as uncomfortable.
	OverheatLimit float64

	cal       sim.Calendar
	months    [12]monthSum // index MonthOfYear-1
	deviation metrics.Stats
	inBand    float64 // seconds spent within the band
	occupied  float64 // seconds evaluated
}

// monthSum is one calendar month's temperature total and tick count.
type monthSum struct {
	sum float64
	n   int
}

// NewComfort returns a tracker with the given comfort band (e.g. 1.5 K)
// and a 26 °C overheat limit, keying its monthly means on cal.
func NewComfort(band float64, cal sim.Calendar) *Comfort {
	return &Comfort{Band: band, OverheatLimit: 26, cal: cal}
}

// Observe records the zone temperature against the active setpoint for a
// tick of dt seconds at time t. Pass occupied=false to skip comfort
// accounting (nobody home); the temperature still counts in its month.
func (c *Comfort) Observe(t float64, dt float64, temp, setpoint units.Celsius, occupied bool) {
	m := &c.months[c.cal.MonthOfYear(t)-1]
	m.sum += float64(temp)
	m.n++
	if !occupied {
		return
	}
	dev := float64(temp) - float64(setpoint)
	c.deviation.Observe(dev)
	c.occupied += dt
	if dev >= -c.Band && float64(temp) <= c.OverheatLimit {
		c.inBand += dt
	}
}

// InBandFraction returns the fraction of occupied time spent inside the
// comfort band.
func (c *Comfort) InBandFraction() float64 {
	if c.occupied == 0 {
		return 0
	}
	return c.inBand / c.occupied
}

// MeanDeviation returns the mean signed deviation from the setpoint during
// occupied time.
func (c *Comfort) MeanDeviation() float64 { return c.deviation.Mean() }

// MonthlyMeans returns the mean observed temperature of every calendar
// month (1..12) with at least one tick, in ascending month order — the
// Fig. 4 output. Each month's sum adds its ticks in time order, as
// metrics.Series.Bucket adds a trace's points, so the means are the same
// to the bit as bucketing a per-tick trace.
func (c *Comfort) MonthlyMeans() (months []int, means []float64) {
	for i, m := range c.months {
		if m.n > 0 {
			months = append(months, i+1)
			means = append(means, m.sum/float64(m.n))
		}
	}
	return months, means
}
