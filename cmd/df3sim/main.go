// Command df3sim runs one DF3 city scenario and prints a full platform
// report: comfort, energy, PUE, per-flow service metrics and the seasonal
// capacity trace. Federations of cities run under df3coord.
//
//	df3sim -buildings 6 -rooms 8 -days 7 -edge 1 -dcc 1.5
//	df3sim -boilers 2 -days 30 -climate stockholm -start jan
//	df3sim -arch dedicated -offload preempt -csv capacity.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"df3/internal/city"
	"df3/internal/core"
	"df3/internal/offload"
	"df3/internal/report"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/weather"
)

func main() {
	var cfg simConfig
	flag.IntVar(&cfg.buildings, "buildings", 6, "number of buildings (one cluster each)")
	flag.IntVar(&cfg.rooms, "rooms", 8, "rooms per building")
	flag.IntVar(&cfg.boilers, "boilers", 0, "buildings heated by a digital boiler instead of Q.rads")
	flag.Float64Var(&cfg.days, "days", 7, "simulated days")
	flag.Float64Var(&cfg.edgeRate, "edge", 1, "edge workload scale (0 disables)")
	flag.Float64Var(&cfg.dccRate, "dcc", 1.5, "DCC jobs per hour (0 disables)")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.StringVar(&cfg.climate, "climate", "paris", "climate: paris | stockholm | seville")
	flag.StringVar(&cfg.start, "start", "nov", "calendar start: jan | nov | jul")
	flag.StringVar(&cfg.arch, "arch", "shared", "architecture: shared | dedicated")
	flag.StringVar(&cfg.policy, "offload", "smart", "offload policy: smart|reject|delay|preempt|vertical|horizontal")
	offices := flag.Bool("offices", false, "office schedules instead of homes")
	flag.StringVar(&cfg.csvPath, "csv", "", "write the capacity series to this CSV file")
	flag.Float64Var(&cfg.mtbf, "mtbf", 0, "mean days between machine failures (0 disables fault injection)")
	flag.StringVar(&cfg.spansPath, "spans", "", "record causal spans across the whole stack and write them as JSONL (summarise with df3trace)")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		fatal("%v", err)
	}

	ccfg := city.DefaultConfig()
	ccfg.Seed = *seed
	ccfg.Buildings = cfg.buildings
	ccfg.RoomsPerBuilding = cfg.rooms
	ccfg.BoilerBuildings = cfg.boilers
	ccfg.Offices = *offices

	switch cfg.climate {
	case "paris":
		ccfg.Climate = weather.Paris
	case "stockholm":
		ccfg.Climate = weather.Stockholm
	case "seville":
		ccfg.Climate = weather.Seville
	}
	switch cfg.start {
	case "jan":
		ccfg.Calendar = sim.JanuaryStart
	case "nov":
		ccfg.Calendar = sim.NovemberStart
	case "jul":
		ccfg.Calendar = sim.Calendar{StartDayOfYear: 6 * 365.0 / 12}
	}
	switch cfg.arch {
	case "shared":
		ccfg.Middleware.Arch = core.Shared
	case "dedicated":
		ccfg.Middleware.Arch = core.Dedicated
		ccfg.Middleware.DedicatedEdgeWorkers = 1
	}
	ccfg.Middleware.Offload = map[string]offload.Policy{
		"smart":      offload.Smart{},
		"reject":     offload.RejectPolicy{},
		"delay":      offload.DelayPolicy{},
		"preempt":    offload.PreemptPolicy{},
		"vertical":   offload.VerticalPolicy{},
		"horizontal": offload.HorizontalPolicy{},
	}[cfg.policy]

	if cfg.mtbf > 0 {
		ccfg.MTBF = sim.Time(cfg.mtbf) * sim.Day
	}

	horizon := sim.Time(cfg.days) * sim.Day
	c := city.Build(ccfg)
	var rec *trace.Recorder
	if cfg.spansPath != "" {
		rec = trace.NewRecorder(0)
		c.EnableTracing(rec)
	}
	if cfg.edgeRate > 0 {
		c.StartEdgeTraffic(horizon, cfg.edgeRate)
	}
	if cfg.dccRate > 0 {
		c.StartDCCTraffic(horizon, cfg.dccRate)
	}
	fmt.Printf("df3sim: %d buildings × %d rooms (%d boiler plants), %s/%s, %s arch, %s offload, %g days\n",
		cfg.buildings, cfg.rooms, cfg.boilers, cfg.climate, cfg.start, cfg.arch, cfg.policy, cfg.days)
	c.Run(horizon + 6*sim.Hour)

	printReport(c)

	if cfg.csvPath != "" {
		f, err := os.Create(cfg.csvPath)
		if err != nil {
			fatal("csv: %v", err)
		}
		defer f.Close()
		t := report.NewTable("", "t_seconds", "capacity_cores")
		for _, pt := range c.CapacitySeries.Points() {
			t.Row(pt.T, pt.V)
		}
		if err := t.CSV(f); err != nil {
			fatal("csv: %v", err)
		}
		fmt.Printf("capacity series written to %s\n", cfg.csvPath)
	}
	if cfg.spansPath != "" {
		writeSpans(rec, cfg.spansPath)
	}
}

// writeSpans dumps a recorder's spans as JSONL.
func writeSpans(rec *trace.Recorder, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal("spans: %v", err)
	}
	defer f.Close()
	if err := rec.WriteSpansJSONL(f); err != nil {
		fatal("spans: %v", err)
	}
	fmt.Printf("%d spans written to %s (df3trace %s)\n",
		len(rec.Spans()), path, path)
}

func printReport(c *city.City) {
	now := c.Engine.Now()

	comfort := report.NewTable("heating flow", "metric", "value")
	inBand, n := 0.0, 0
	for _, r := range c.Rooms() {
		inBand += r.Comfort.InBandFraction()
		n++
	}
	comfort.Row("rooms", n)
	comfort.Row("occupied in-band fraction", inBand/float64(n))
	months, means := c.MonthlyComfort()
	for i, m := range months {
		comfort.Row(fmt.Sprintf("month %d mean °C", m), means[i])
	}
	comfort.Row("backup resistor kWh", c.ResistorEnergy().KWh())
	comfort.Row("boiler waste kWh", c.WastedBoilerHeat().KWh())
	comfort.Write(os.Stdout)

	energy := report.NewTable("fleet energy", "metric", "value")
	it, fac, heat := c.Fleet.Energy(now)
	energy.Row("IT energy kWh", it.KWh())
	energy.Row("facility energy kWh", fac.KWh())
	energy.Row("useful heat kWh", heat.KWh())
	if it > 0 {
		energy.Row("PUE", float64(fac)/float64(it))
	}
	energy.Row("mean capacity (cores)", c.CapacitySeries.Mean())
	energy.Row("max capacity (cores)", c.Fleet.MaxCapacity())
	energy.Write(os.Stdout)

	edge := report.NewTable("edge flow", "metric", "value")
	e := &c.MW.Edge
	edge.Row("arrived", e.Arrived())
	edge.Row("served", e.Served.Value())
	edge.Row("miss rate", e.MissRate())
	edge.Row("mean latency ms", e.Latency.Mean()*1000)
	edge.Row("p99 latency ms", e.Latency.P99()*1000)
	edge.Row("preemptions", e.Preemptions.Value())
	edge.Row("horizontal offloads", e.Horizontal.Value())
	edge.Row("vertical offloads", e.Vertical.Value())
	edge.Write(os.Stdout)

	dcc := report.NewTable("dcc flow", "metric", "value")
	d := &c.MW.DCC
	dcc.Row("jobs done", d.JobsDone.Value())
	dcc.Row("tasks done", d.TasksDone.Value())
	dcc.Row("core-hours", d.WorkDone/3600)
	dcc.Row("mean job stretch", d.JobStretch.Mean())
	dcc.Row("throughput core-s/s", d.Throughput(now))
	dcc.Write(os.Stdout)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "df3sim: "+format+"\n", args...)
	os.Exit(2)
}
