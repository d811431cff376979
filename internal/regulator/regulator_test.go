package regulator

import (
	"math"
	"testing"
	"testing/quick"

	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/thermal"
	"df3/internal/units"
	"df3/internal/weather"
)

func TestHysteresisSwitching(t *testing.T) {
	h := &Hysteresis{Band: 0.5}
	if h.Fraction(18, 20) != 1 {
		t.Error("cold room did not switch on")
	}
	// Inside the band it holds the previous state.
	if h.Fraction(20.2, 20) != 1 {
		t.Error("in-band did not hold ON state")
	}
	if h.Fraction(20.6, 20) != 0 {
		t.Error("warm room did not switch off")
	}
	if h.Fraction(19.8, 20) != 0 {
		t.Error("in-band did not hold OFF state")
	}
	if h.Fraction(19.4, 20) != 1 {
		t.Error("cold again did not switch back on")
	}
}

func TestProportionalShape(t *testing.T) {
	p := Proportional{Band: 1}
	if p.Fraction(18, 20) != 1 {
		t.Error("far below setpoint should be full power")
	}
	if p.Fraction(22, 20) != 0 {
		t.Error("far above setpoint should be zero")
	}
	if got := p.Fraction(20, 20); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("at setpoint fraction = %v, want 0.5", got)
	}
	if got := p.Fraction(19.5, 20); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("fraction = %v, want 0.75", got)
	}
}

func TestProportionalZeroBand(t *testing.T) {
	p := Proportional{}
	if p.Fraction(19, 20) != 1 || p.Fraction(21, 20) != 0 {
		t.Error("zero-band proportional should degrade to on/off")
	}
}

// Property: every thermostat returns a fraction in [0,1] and is
// monotonically non-increasing in room temperature.
func TestThermostatProperty(t *testing.T) {
	f := func(t1, t2 float64, sp float64) bool {
		a := math.Mod(math.Abs(t1), 40)
		b := math.Mod(math.Abs(t2), 40)
		if a > b {
			a, b = b, a
		}
		set := units.Celsius(15 + math.Mod(math.Abs(sp), 10))
		p := Proportional{Band: 1}
		fa, fb := p.Fraction(units.Celsius(a), set), p.Fraction(units.Celsius(b), set)
		if fa < 0 || fa > 1 || fb < 0 || fb > 1 {
			return false
		}
		return fa >= fb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPIRemovesOffset(t *testing.T) {
	// Under a constant disturbance a P controller settles below setpoint;
	// the PI controller should settle closer.
	run := func(th Thermostat) float64 {
		e := sim.New()
		m := server.QradSpec().Build(e, "m")
		zone := thermal.NewZone(thermal.Apartment)
		loop := &HeaterLoop{
			Zone: zone, Machine: m, Thermostat: th,
			Schedule: ConstantSchedule(21),
			Weather:  weather.Constant(0),
			Backup:   true,
		}
		loop.Start(e, 60)
		// Keep machine busy so compute heat is available.
		for i := 0; i < m.Cores; i++ {
			m.Start(&server.Task{Work: 1e9})
		}
		e.Run(60 * sim.Hour)
		return float64(zone.Temp)
	}
	p := run(Proportional{Band: 1})
	pi := run(&PI{Band: 1, Ki: 0.002, IMax: 0.5})
	if math.Abs(pi-21) > math.Abs(p-21)+0.05 {
		t.Errorf("PI offset (%v) worse than P offset (%v)", pi-21, p-21)
	}
}

func TestHomeScheduleShape(t *testing.T) {
	h := HomeSchedule{Calendar: sim.JanuaryStart, Comfort: 21, Setback: 17}
	// 7 am Monday: comfort, occupied.
	sp, occ := h.At(7 * sim.Hour)
	if sp != 21 || !occ {
		t.Errorf("morning = %v/%v", sp, occ)
	}
	// 1 pm Monday: away.
	sp, occ = h.At(13 * sim.Hour)
	if sp != 17 || occ {
		t.Errorf("workday = %v/%v", sp, occ)
	}
	// 1 pm Saturday: occupied comfort.
	sp, occ = h.At(5*sim.Day + 13*sim.Hour)
	if sp != 21 || !occ {
		t.Errorf("weekend = %v/%v", sp, occ)
	}
	// 2 am: setback, present.
	sp, occ = h.At(2 * sim.Hour)
	if sp != 17 || !occ {
		t.Errorf("night = %v/%v", sp, occ)
	}
}

func TestOfficeScheduleShape(t *testing.T) {
	o := OfficeSchedule{Calendar: sim.JanuaryStart, Comfort: 20, Setback: 15}
	if sp, occ := o.At(10 * sim.Hour); sp != 20 || !occ {
		t.Error("office should be at comfort on weekday morning")
	}
	if sp, occ := o.At(22 * sim.Hour); sp != 15 || occ {
		t.Error("office should set back at night")
	}
	if _, occ := o.At(5*sim.Day + 10*sim.Hour); occ {
		t.Error("office occupied on Saturday")
	}
}

func TestSeasonalOff(t *testing.T) {
	s := SeasonalOff{
		Inner:      ConstantSchedule(21),
		Calendar:   sim.JanuaryStart,
		FirstMonth: 10, LastMonth: 4,
	}
	if !s.InSeason(0) { // January
		t.Error("January should be in season")
	}
	if s.InSeason(6 * sim.Month) { // July
		t.Error("July should be out of season")
	}
	if sp, _ := s.At(6 * sim.Month); sp != 0 {
		t.Errorf("summer setpoint = %v, want 0", sp)
	}
	if sp, occ := s.At(0); sp != 21 || !occ {
		t.Error("winter setpoint should pass through")
	}
}

func TestHeaterLoopHoldsSetpoint(t *testing.T) {
	e := sim.New()
	m := server.QradSpec().Build(e, "m")
	zone := thermal.NewZone(thermal.Apartment)
	zone.Temp = 20 // heating already established; we test the hold
	comfort := thermal.NewComfort(1.5, sim.JanuaryStart)
	loop := &HeaterLoop{
		Zone: zone, Machine: m,
		Thermostat: Proportional{Band: 0.8},
		Schedule:   ConstantSchedule(20),
		Weather:    weather.Constant(2),
		Backup:     true,
		Comfort:    comfort,
	}
	loop.Start(e, 60)
	// Saturate the machine with batch work so compute heat is available.
	for i := 0; i < m.Cores; i++ {
		m.Start(&server.Task{Work: 1e9})
	}
	e.Run(72 * sim.Hour)
	if math.Abs(float64(zone.Temp)-20) > 1.6 {
		t.Errorf("zone settled at %v, want ~20", zone.Temp)
	}
	if comfort.InBandFraction() < 0.8 {
		t.Errorf("in-band fraction = %v", comfort.InBandFraction())
	}
}

func TestHeaterLoopBackupCoversIdleMachine(t *testing.T) {
	// No computing load at all: with backup the room still reaches the
	// setpoint, and the resistor records the energy.
	e := sim.New()
	m := server.QradSpec().Build(e, "m")
	zone := thermal.NewZone(thermal.Apartment)
	loop := &HeaterLoop{
		Zone: zone, Machine: m,
		Thermostat: Proportional{Band: 0.8},
		Schedule:   ConstantSchedule(20),
		Weather:    weather.Constant(0),
		Backup:     true,
	}
	loop.Start(e, 60)
	e.Run(72 * sim.Hour)
	if float64(zone.Temp) < 18 {
		t.Errorf("backup did not keep room warm: %v", zone.Temp)
	}
	if loop.ResistorEnergy() <= 0 {
		t.Error("resistor energy not recorded")
	}
}

func TestHeaterLoopNoBackupIdleMachineStaysCold(t *testing.T) {
	e := sim.New()
	m := server.QradSpec().Build(e, "m")
	zone := thermal.NewZone(thermal.Apartment)
	zone.Temp = 10
	loop := &HeaterLoop{
		Zone: zone, Machine: m,
		Thermostat: Proportional{Band: 0.8},
		Schedule:   ConstantSchedule(20),
		Weather:    weather.Constant(0),
		Backup:     false,
	}
	loop.Start(e, 60)
	e.Run(48 * sim.Hour)
	// An idle machine draws only idle power even when budgeted: without
	// backup the room cannot reach the setpoint.
	if float64(zone.Temp) > 15 {
		t.Errorf("idle machine warmed room to %v without backup", zone.Temp)
	}
}

func TestHeaterLoopSheddingWhenWarm(t *testing.T) {
	e := sim.New()
	m := server.QradSpec().Build(e, "m")
	zone := thermal.NewZone(thermal.Apartment)
	zone.Temp = 26 // warm room: thermostat must cut the machine
	loop := &HeaterLoop{
		Zone: zone, Machine: m,
		Thermostat: Proportional{Band: 0.8},
		Schedule:   ConstantSchedule(20),
		Weather:    weather.Constant(24),
	}
	loop.Start(e, 60)
	for i := 0; i < m.Cores; i++ {
		m.Start(&server.Task{Work: 1e9})
	}
	e.Run(2 * sim.Hour)
	if m.Budget() > 0 {
		t.Errorf("machine budget = %v with a warm room", m.Budget())
	}
	if m.RunningTasks() != 0 {
		t.Error("tasks still progressing on a heat-gated machine")
	}
}

func TestBoilerLoopHoldsTarget(t *testing.T) {
	e := sim.New()
	m := server.BoilerSpec().Build(e, "boiler")
	wl := thermal.NewWaterLoop(2000)
	loop := &BoilerLoop{
		Loop: wl, Machine: m, Target: 55, Band: 5,
		Draw: func(sim.Time) units.Watt { return 8000 },
	}
	loop.Start(e, 60)
	for i := 0; i < m.Cores; i++ {
		m.Start(&server.Task{Work: 1e9})
	}
	e.Run(48 * sim.Hour)
	if math.Abs(float64(wl.Temp)-55) > 6 {
		t.Errorf("loop settled at %v, want ~55", wl.Temp)
	}
}

func TestBoilerAlwaysOnWastes(t *testing.T) {
	run := func(alwaysOn bool) units.Joule {
		e := sim.New()
		m := server.BoilerSpec().Build(e, "boiler")
		wl := thermal.NewWaterLoop(2000)
		loop := &BoilerLoop{
			Loop: wl, Machine: m, Target: 55, Band: 5,
			Draw:     func(sim.Time) units.Watt { return 0 }, // summer: no draw
			AlwaysOn: alwaysOn,
		}
		loop.Start(e, 60)
		for i := 0; i < m.Cores; i++ {
			m.Start(&server.Task{Work: 1e9})
		}
		e.Run(7 * sim.Day)
		return wl.Wasted()
	}
	regulated := run(false)
	always := run(true)
	if always <= regulated {
		t.Errorf("always-on waste (%v) not above regulated (%v)", always, regulated)
	}
	if always <= 0 {
		t.Error("always-on boiler with no draw recorded no waste")
	}
}

func TestHeaterLoopDerate(t *testing.T) {
	e := sim.New()
	m := server.QradSpec().Build(e, "m")
	zone := thermal.NewZone(thermal.OldBuilding)
	zone.Temp = 15 // far below setpoint: thermostat wants full power
	derated := false
	loop := &HeaterLoop{
		Zone: zone, Machine: m,
		Thermostat: Proportional{Band: 0.8},
		Schedule:   ConstantSchedule(21),
		Weather:    weather.Constant(0),
		Derate: func(sim.Time) float64 {
			if derated {
				return 0.2
			}
			return 1
		},
	}
	loop.Start(e, 60)
	e.Run(10 * 60)
	full := float64(m.Budget())
	if full < 400 {
		t.Fatalf("full budget = %v, want near max", full)
	}
	derated = true
	e.Run(12 * 60)
	if got := float64(m.Budget()); got > full*0.25 {
		t.Errorf("derated budget = %v, want ≤ 0.2×%v", got, full)
	}
}

func TestBoilerLoopDerate(t *testing.T) {
	e := sim.New()
	m := server.BoilerSpec().Build(e, "boiler")
	wl := thermal.NewWaterLoop(2000)
	wl.Temp = 40 // cold loop: regulator wants full power
	loop := &BoilerLoop{
		Loop: wl, Machine: m, Target: 55, Band: 5,
		Draw:   func(sim.Time) units.Watt { return 8000 },
		Derate: func(sim.Time) float64 { return 0.3 },
	}
	loop.Start(e, 60)
	e.Run(5 * 60)
	if got := float64(m.Budget()); got > 0.31*float64(m.Model.MaxDraw()) {
		t.Errorf("derated boiler budget = %v", got)
	}
}
