package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"df3/internal/metrics"
	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/units"
)

func TestZoneCoolsTowardOutdoor(t *testing.T) {
	z := NewZone(Apartment)
	z.Temp = 20
	for i := 0; i < 6*24*60; i++ { // 6 days unheated, 1-min steps
		z.Step(60, 0, 0, 0)
	}
	if z.Temp > 3.5 {
		t.Errorf("room still at %v after 6 days unheated with 0°C outside", z.Temp)
	}
	if z.Temp < 0 {
		t.Errorf("room dropped below outdoor temperature: %v", z.Temp)
	}
}

func TestZoneSteadyState(t *testing.T) {
	z := NewZone(Apartment)
	z.Temp = 20
	outdoor := units.Celsius(0)
	p := z.SteadyStatePower(20, outdoor, 0)
	// 20 K / 0.10 K/W = 200 W: a low-energy room well inside the Q.rad's
	// 500 W output, as the sizing rule requires.
	if math.Abs(float64(p)-200) > 1e-9 {
		t.Fatalf("steady-state power = %v, want 200 W", p)
	}
	for i := 0; i < 24*60; i++ {
		z.Step(60, p, 0, outdoor)
	}
	if math.Abs(float64(z.Temp)-20) > 0.01 {
		t.Errorf("steady-state hold drifted to %v", z.Temp)
	}
}

func TestZoneHeatsUp(t *testing.T) {
	z := NewZone(Apartment)
	z.Temp = 15
	before := z.Temp
	for i := 0; i < 6*60; i++ {
		z.Step(60, 500, 0, 5)
	}
	if z.Temp <= before {
		t.Errorf("heated room did not warm: %v -> %v", before, z.Temp)
	}
}

func TestGainsReduceHeaterNeed(t *testing.T) {
	z := NewZone(Apartment)
	p0 := z.SteadyStatePower(20, 0, 0)
	p1 := z.SteadyStatePower(20, 0, 200)
	if float64(p1) != float64(p0)-200 {
		t.Errorf("gains not subtracted: %v vs %v", p0, p1)
	}
	if z.SteadyStatePower(20, 25, 0) != 0 {
		t.Error("steady-state power should floor at 0 when outdoor is warmer")
	}
}

func TestTimeConstant(t *testing.T) {
	z := NewZone(Apartment)
	tc := z.TimeConstant()
	if tc < 3600 || tc > 1e6 {
		t.Errorf("implausible time constant %v s", tc)
	}
}

// Property: with bounded inputs, a zone stepped any number of times stays
// between outdoor temperature and a physical maximum (energy balance: the
// fixed point of the ODE with max power).
func TestZoneBoundedProperty(t *testing.T) {
	f := func(steps uint16, heat8 uint8, out8 int8) bool {
		z := NewZone(Apartment)
		z.Temp = 18
		heater := units.Watt(float64(heat8) * 4) // 0..1020 W
		outdoor := units.Celsius(float64(out8) / 4)
		maxT := float64(outdoor) + float64(heater)*z.R + 1e-6
		minT := math.Min(float64(outdoor), 18)
		for i := 0; i < int(steps); i++ {
			v := float64(z.Step(60, heater, 0, outdoor))
			if v != v || v > math.Max(maxT, 18)+1e-6 || v < minT-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: zone temperature is monotone in heater power — more heat never
// yields a colder room after the same step sequence.
func TestZoneMonotoneInPower(t *testing.T) {
	f := func(pa, pb uint8, out int8) bool {
		lo, hi := float64(pa)*4, float64(pb)*4
		if lo > hi {
			lo, hi = hi, lo
		}
		za, zb := NewZone(Office), NewZone(Office)
		for i := 0; i < 500; i++ {
			za.Step(60, units.Watt(lo), 0, units.Celsius(out))
			zb.Step(60, units.Watt(hi), 0, units.Celsius(out))
		}
		return float64(zb.Temp) >= float64(za.Temp)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWaterLoopBuffers(t *testing.T) {
	w := NewWaterLoop(1000) // 1 t of water
	start := w.Temp
	for i := 0; i < 3600; i++ { // 1 h of 20 kW rack, no draw
		w.Step(1, 20000, 0, 15)
	}
	if w.Temp <= start {
		t.Error("loop did not warm under rack heat")
	}
	if w.Temp > w.MaxTemp {
		t.Errorf("loop exceeded MaxTemp: %v", w.Temp)
	}
}

func TestWaterLoopWasteAboveCap(t *testing.T) {
	w := NewWaterLoop(100) // small buffer saturates fast
	for i := 0; i < 7200; i++ {
		w.Step(1, 20000, 0, 15)
	}
	if w.Wasted() <= 0 {
		t.Error("saturated loop recorded no waste heat")
	}
	if w.Temp != w.MaxTemp {
		t.Errorf("saturated loop at %v, want MaxTemp %v", w.Temp, w.MaxTemp)
	}
}

func TestWaterLoopDrawCools(t *testing.T) {
	w := NewWaterLoop(1000)
	w.Temp = 60
	for i := 0; i < 3600; i++ {
		w.Step(1, 0, 30000, 15) // building draws 30 kW
	}
	if w.Temp >= 60 {
		t.Error("loop did not cool under draw")
	}
	if w.Temp < 15 {
		t.Errorf("loop fell below ambient: %v", w.Temp)
	}
}

func TestWaterLoopHeadroom(t *testing.T) {
	w := NewWaterLoop(500)
	h0 := w.Headroom()
	w.Temp = w.MaxTemp
	if w.Headroom() != 0 {
		t.Errorf("headroom at cap = %v", w.Headroom())
	}
	if h0 <= 0 {
		t.Errorf("initial headroom = %v", h0)
	}
}

func TestComfortInBand(t *testing.T) {
	c := NewComfort(1.5, sim.JanuaryStart)
	// 10 ticks at setpoint, 10 ticks far below, all occupied.
	for i := 0; i < 10; i++ {
		c.Observe(float64(i)*60, 60, 20, 20, true)
	}
	for i := 10; i < 20; i++ {
		c.Observe(float64(i)*60, 60, 14, 20, true)
	}
	if got := c.InBandFraction(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("in-band fraction = %v, want 0.5", got)
	}
	if c.MeanDeviation() >= 0 {
		t.Errorf("mean deviation = %v, want negative", c.MeanDeviation())
	}
}

// TestComfortSkipsUnoccupied: an unoccupied tick is left out of the
// comfort accounting but its temperature still counts in its month.
func TestComfortSkipsUnoccupied(t *testing.T) {
	c := NewComfort(1, sim.JanuaryStart)
	c.Observe(0, 60, 10, 20, false)
	if c.InBandFraction() != 0 || c.occupied != 0 {
		t.Error("unoccupied tick was counted")
	}
	months, means := c.MonthlyMeans()
	if len(months) != 1 || months[0] != 1 || means[0] != 10 {
		t.Errorf("monthly means = %v %v, want the unoccupied tick's 10 °C in January", months, means)
	}
}

func TestComfortMonthlyMeans(t *testing.T) {
	c := NewComfort(1, sim.NovemberStart)
	// November: 20°, December: 22°.
	c.Observe(0, 60, 20, 20, true)
	c.Observe(1, 60, 20, 20, true)
	c.Observe(sim.Month+1, 60, 22, 20, true)
	months, means := c.MonthlyMeans()
	if len(months) != 2 || months[0] != 11 || months[1] != 12 || means[0] != 20 || means[1] != 22 {
		t.Errorf("monthly means = %v %v", months, means)
	}
}

// TestComfortMatchesSeriesBucket: the monthly sums reproduce, bit for bit,
// the means of bucketing a per-tick trace by calendar month, on a random
// trace that crosses a year end and comes back to its first month.
func TestComfortMatchesSeriesBucket(t *testing.T) {
	for _, cal := range []sim.Calendar{sim.NovemberStart, sim.JanuaryStart, {StartDayOfYear: 17.3}} {
		s := rng.New(42)
		c := NewComfort(1.5, cal)
		var trace metrics.Series
		now := 0.0
		for now < 14*sim.Month {
			temp := units.Celsius(15 + 8*s.Float64())
			c.Observe(now, 60, temp, 21, s.Float64() < 0.7)
			trace.Add(now, float64(temp))
			now += 30 + 600*s.Float64()
		}
		wantMonths, wantMeans := trace.Bucket(cal.MonthOfYear)
		months, means := c.MonthlyMeans()
		if len(months) != len(wantMonths) {
			t.Fatalf("%+v: months %v, want %v", cal, months, wantMonths)
		}
		for i := range months {
			if months[i] != wantMonths[i] || math.Float64bits(means[i]) != math.Float64bits(wantMeans[i]) {
				t.Fatalf("%+v: month %d mean %v, bucketed trace gives month %d mean %v",
					cal, months[i], means[i], wantMonths[i], wantMeans[i])
			}
		}
	}
}

func TestUHIIntensity(t *testing.T) {
	// 25 W/m² over the district ≈ 1 K of street-level warming.
	if got := UHIIntensity(25*40000, 40000); math.Abs(float64(got)-1) > 1e-9 {
		t.Errorf("UHI at 25 W/m² = %v, want 1 K", got)
	}
	if UHIIntensity(1000, 0) != 0 {
		t.Error("zero area should yield 0")
	}
	if UHIIntensity(0, 1000) != 0 {
		t.Error("zero rejection should yield 0")
	}
}
