package regulator

import (
	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/thermal"
	"df3/internal/units"
	"df3/internal/weather"
)

// HeaterLoop binds one thermal zone, one DF heater machine, a thermostat
// and a setpoint schedule into a closed control loop on the engine.
//
// Each control tick it (1) integrates the zone over the elapsed tick using
// the machine's *metered* heat (exact, since machine power is piecewise
// constant between events), (2) reads the schedule and thermostat, and
// (3) sets the machine's power budget for the next tick. When the computing
// load cannot produce the requested heat (no Internet requests — the
// paper's supply/demand mismatch, §II-C), an optional resistive backup
// element tops up the difference so comfort never depends on cloud demand.
type HeaterLoop struct {
	Zone       *thermal.Zone
	Machine    *server.Machine
	Thermostat Thermostat
	Schedule   Schedule
	Weather    *weather.Generator
	// Gains returns non-heater internal gains (occupants, sun, appliances).
	Gains func(t sim.Time) units.Watt
	// Backup enables the resistive top-up element.
	Backup bool
	// Comfort optionally accumulates comfort statistics.
	Comfort *thermal.Comfort
	// Derate, when set, scales the electrical budget (machine and
	// resistor alike) by its value in [0,1] — the §III-A smart-grid
	// demand-response hook: the grid operator asks the fleet to shed
	// load, and the room's thermal inertia rides through.
	Derate func(t sim.Time) float64

	lastHeat       units.Joule // machine meter reading at last tick
	resistorW      units.Watt  // resistor power during the current tick
	resistorEnergy units.Joule
	requested      units.Watt // last requested heat power
	sub            *sim.Sub
}

// VentCoeffWPerK is the air-exchange coefficient of an opened window.
const VentCoeffWPerK = 40.0

// VentCeiling is the temperature above which occupants start venting: a
// margin over the active setpoint, or an absolute bound when heating is
// off (setpoint 0, summer).
func VentCeiling(setpoint units.Celsius) units.Celsius {
	if setpoint <= 0 {
		return 25
	}
	return setpoint + 1.5
}

// Start begins the control loop with the given tick period (60 s is the
// reference configuration). All loops of one period share the engine's
// tick domain, so a building of rooms costs one heap event per control
// round rather than one per room.
func (h *HeaterLoop) Start(e *sim.Engine, period sim.Time) {
	if h.Gains == nil {
		h.Gains = func(sim.Time) units.Watt { return 0 }
	}
	h.Machine.FlushMeter()
	h.lastHeat = h.Machine.Meter().UsefulHeat()
	h.sub = e.Domain(period).Subscribe(func(now sim.Time) { h.tick(now, period) })
}

// Stop halts the loop.
func (h *HeaterLoop) Stop() {
	if h.sub != nil {
		h.sub.Stop()
	}
}

func (h *HeaterLoop) tick(now sim.Time, dt sim.Time) {
	// 1. Integrate the zone over the elapsed tick with the exact average
	// machine heat plus the resistor contribution chosen last tick.
	h.Machine.FlushMeter()
	heatJ := h.Machine.Meter().UsefulHeat() - h.lastHeat
	h.lastHeat = h.Machine.Meter().UsefulHeat()
	avgMachineHeat := units.Watt(float64(heatJ) / dt)
	h.resistorEnergy += units.Joule(float64(h.resistorW) * dt)
	outdoor := h.Weather.OutdoorTemp(now)
	gains := h.Gains(now)
	setpoint, occupied := h.Schedule.At(now)
	vent := thermal.VentLoss(h.Zone.Temp, VentCeiling(setpoint), outdoor, VentCoeffWPerK)
	h.Zone.Step(dt, avgMachineHeat+h.resistorW, gains-vent, outdoor)
	frac := 0.0
	if setpoint > 0 {
		frac = h.Thermostat.Fraction(h.Zone.Temp, setpoint)
	}
	derate := 1.0
	if h.Derate != nil {
		derate = units.Clamp(h.Derate(now), 0, 1)
	}
	maxHeat := float64(h.Machine.Model.MaxDraw()) * h.Machine.Model.HeatFraction
	h.requested = units.Watt(frac * maxHeat * derate)

	// 3. Apply: budget the machine; the resistor covers next tick's
	// expected shortfall between requested heat and what computing will
	// plausibly deliver (measured as what it delivers right now).
	h.Machine.SetBudget(units.Watt(frac * float64(h.Machine.Model.MaxDraw()) * derate))
	if h.Backup {
		shortfall := float64(h.requested) - float64(h.Machine.HeatOutput())
		if shortfall < 0 {
			shortfall = 0
		}
		h.resistorW = units.Watt(shortfall)
	} else {
		h.resistorW = 0
	}

	if h.Comfort != nil {
		h.Comfort.Observe(now, dt, h.Zone.Temp, setpoint, occupied && setpoint > 0)
	}
}

// ResistorEnergy returns the cumulative backup-resistor energy — heat the
// operator had to deliver without monetising it as compute.
func (h *HeaterLoop) ResistorEnergy() units.Joule { return h.resistorEnergy }

// BoilerLoop regulates a digital boiler (§II-B2): the machine heats a water
// loop; the building draws from the loop; the regulator holds the loop near
// its target temperature. Because the buffer decouples compute from
// instantaneous room demand, a boiler sustains computing through demand
// troughs — and wastes heat if it keeps computing with no draw (§III-C).
type BoilerLoop struct {
	Loop    *thermal.WaterLoop
	Machine *server.Machine
	// Target is the loop temperature the regulator holds.
	Target units.Celsius
	// Band is the proportional band around the target.
	Band float64
	// Draw returns the building's current heat draw from the loop.
	Draw func(t sim.Time) units.Watt
	// Ambient returns the plant-room temperature.
	Ambient func(t sim.Time) units.Celsius
	// AlwaysOn keeps the machine at full budget regardless of loop
	// temperature (the "always generates heat" stress case of §III-C;
	// excess heat above MaxTemp is dumped as waste).
	AlwaysOn bool
	// Derate is the demand-response hook (see HeaterLoop.Derate).
	Derate func(t sim.Time) float64

	lastHeat units.Joule
	sub      *sim.Sub
}

// Start begins the control loop on the engine's shared tick domain.
func (b *BoilerLoop) Start(e *sim.Engine, period sim.Time) {
	if b.Ambient == nil {
		b.Ambient = func(sim.Time) units.Celsius { return 18 }
	}
	b.Machine.FlushMeter()
	b.lastHeat = b.Machine.Meter().UsefulHeat()
	b.sub = e.Domain(period).Subscribe(func(now sim.Time) { b.tick(now, period) })
}

// Stop halts the loop.
func (b *BoilerLoop) Stop() {
	if b.sub != nil {
		b.sub.Stop()
	}
}

func (b *BoilerLoop) tick(now sim.Time, dt sim.Time) {
	b.Machine.FlushMeter()
	heatJ := b.Machine.Meter().UsefulHeat() - b.lastHeat
	b.lastHeat = b.Machine.Meter().UsefulHeat()
	avgHeat := units.Watt(float64(heatJ) / dt)
	b.Loop.Step(dt, avgHeat, b.Draw(now), b.Ambient(now))

	derate := 1.0
	if b.Derate != nil {
		derate = units.Clamp(b.Derate(now), 0, 1)
	}
	if b.AlwaysOn {
		b.Machine.SetBudget(units.Watt(float64(b.Machine.Model.MaxDraw()) * derate))
		return
	}
	frac := units.Clamp((float64(b.Target)+b.Band-float64(b.Loop.Temp))/(2*b.Band), 0, 1)
	b.Machine.SetBudget(units.Watt(frac * float64(b.Machine.Model.MaxDraw()) * derate))
}
