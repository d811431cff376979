package sim_test

import (
	"fmt"

	"df3/internal/sim"
)

// ExampleEngine builds the smallest possible simulation: two events and a
// resumable clock.
func ExampleEngine() {
	e := sim.New()
	e.At(2*sim.Hour, func() { fmt.Println("second at", e.Now()/sim.Hour, "h") })
	e.After(sim.Hour, func() { fmt.Println("first at", e.Now()/sim.Hour, "h") })
	e.Run(sim.Day)
	// Output:
	// first at 1 h
	// second at 2 h
}

// ExampleEngine_Domain shows a periodic process stopping itself.
func ExampleEngine_Domain() {
	e := sim.New()
	n := 0
	var sub *sim.Sub
	sub = e.Domain(sim.Minute).Subscribe(func(now sim.Time) {
		n++
		if n == 3 {
			sub.Stop()
		}
	})
	e.Run(sim.Hour)
	fmt.Println(n, "ticks")
	// Output:
	// 3 ticks
}

// ExampleCalendar maps simulated time onto seasons and office hours.
func ExampleCalendar() {
	cal := sim.NovemberStart
	fmt.Println("month at start:", cal.MonthOfYear(0))
	fmt.Println("month after 3 average months:", cal.MonthOfYear(3*sim.Month))
	fmt.Println("weekend on day 5:", sim.JanuaryStart.IsWeekend(5*sim.Day))
	// Output:
	// month at start: 11
	// month after 3 average months: 2
	// weekend on day 5: true
}
