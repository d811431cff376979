// Districtheating: a city-scale, year-long run mixing per-room digital
// heaters with building-level digital boilers (§II-B2), showing the
// seasonal capacity law of §III-C and the §IV pricing consequence: the
// fleet's available compute follows the heat demand, boilers flatten the
// curve, and the spot price moves inversely with capacity.
//
//	go run ./examples/districtheating
package main

import (
	"fmt"

	"df3/internal/city"
	"df3/internal/metrics"
	"df3/internal/pricing"
	"df3/internal/sim"
)

func main() {
	cfg := city.DefaultConfig()
	cfg.Calendar = sim.JanuaryStart
	cfg.Buildings = 4
	cfg.RoomsPerBuilding = 6
	cfg.BoilerBuildings = 2 // half the city heats from digital boilers
	cfg.ControlPeriod = 300
	cfg.HeatingSeasonFirst = 10
	cfg.HeatingSeasonLast = 4

	c := city.Build(cfg)
	// Split the city's hourly capacity sample by platform, on the city's
	// own hourly tick domain.
	var heaterCap, boilerCap metrics.Series
	heaterCap.SampleEvery(c.Engine, sim.Hour, func(float64) float64 { return c.HeaterFleet.Capacity() })
	boilerCap.SampleEvery(c.Engine, sim.Hour, func(float64) float64 { return c.BoilerFleet.Capacity() })
	stop := c.SaturateDCC(1800, 128) // customers queue all year
	defer stop()

	fmt.Println("=== district heating: heaters + boilers over one year ===")
	c.Run(sim.Year)

	monthOf := func(t float64) int { return cfg.Calendar.MonthOfYear(t) }
	months, caps := c.CapacitySeries.Bucket(monthOf)
	_, heaterCaps := heaterCap.Bucket(monthOf)
	_, boilerCaps := boilerCap.Bucket(monthOf)
	_, temps := c.OutdoorSeries.Bucket(monthOf)
	curve := pricing.DefaultSpotCurve()
	max := c.Fleet.MaxCapacity()

	fmt.Println("\nmonth  heaters  boilers  total  avail  spot €/core-h  outdoor °C")
	for i, m := range months {
		avail := caps[i] / max
		fmt.Printf("%5d  %7.1f  %7.1f  %5.1f  %5.2f  %13.4f  %10.1f\n",
			m, heaterCaps[i], boilerCaps[i], caps[i], avail, curve.Price(avail), temps[i])
	}
	fmt.Println("\nheater capacity follows the heat demand (§III-C); the boilers'")
	fmt.Println("water buffer and year-round hot-water draw flatten their curve.")

	it, _, heat := c.Fleet.Energy(c.Engine.Now())
	fmt.Printf("\nyear total: %.0f kWh compute, %.0f kWh delivered heat, %.0f kWh boiler waste\n",
		it.KWh(), heat.KWh(), c.WastedBoilerHeat().KWh())
	fmt.Printf("dcc output: %.0f core-hours across the year\n", c.MW.DCC.WorkDone/3600)

	inBand := 0.0
	for _, r := range c.Rooms() {
		inBand += r.Comfort.InBandFraction()
	}
	fmt.Printf("comfort: %.0f%% of occupied time in band across %d rooms\n",
		100*inBand/float64(len(c.Rooms())), len(c.Rooms()))
}
