// Package city assembles full DF3 scenarios: buildings of rooms with DF
// heaters (or boiler plants), thermostat loops, a building LAN per cluster,
// metro links between buildings, an operator and a remote datacenter. It is
// the scenario layer every experiment and example builds on.
package city

import (
	"fmt"
	"sort"

	"df3/internal/cluster"
	"df3/internal/core"
	"df3/internal/metrics"
	"df3/internal/network"
	"df3/internal/regulator"
	"df3/internal/rng"
	"df3/internal/server"
	"df3/internal/sim"
	"df3/internal/thermal"
	"df3/internal/units"
	"df3/internal/weather"
)

// Config describes a city scenario.
type Config struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Calendar anchors simulated time zero on the civil calendar.
	Calendar sim.Calendar
	// Climate drives the weather generator.
	Climate weather.Climate
	// Buildings and RoomsPerBuilding size the city.
	Buildings        int
	RoomsPerBuilding int
	// BoilerBuildings converts the first n buildings to digital-boiler
	// plants (one boiler heating all rooms) instead of per-room heaters.
	BoilerBuildings int
	// RoomSpec is the thermal class of rooms.
	RoomSpec thermal.RoomSpec
	// HeaterSpec is the DF server model in heater rooms.
	HeaterSpec server.Spec
	// BoilerSpec is the DF server model in boiler plants.
	BoilerSpec server.Spec
	// Offices makes buildings use office schedules instead of homes.
	Offices bool
	// ComfortSetpoint and SetbackSetpoint parameterise schedules.
	ComfortSetpoint, SetbackSetpoint units.Celsius
	// HeatingSeason bounds heating months (first, last, wrapping); zero
	// values mean always-on heating.
	HeatingSeasonFirst, HeatingSeasonLast int
	// Backup enables the resistive top-up in heater rooms.
	Backup bool
	// ProportionalBand is the thermostat band; <= 0 selects hysteresis.
	ProportionalBand float64
	// Middleware is the DF3 middleware configuration.
	Middleware core.Config
	// DatacenterNodes sizes the remote datacenter.
	DatacenterNodes int
	// ControlPeriod is the thermostat/thermal tick (default 60 s).
	ControlPeriod sim.Time
	// AlwaysOnBoilers keeps boiler machines at full power regardless of
	// loop temperature (the §III-C waste-heat stress case).
	AlwaysOnBoilers bool
	// MTBF enables failure injection when positive: each DF machine fails
	// after an exponential uptime with this mean (free cooling ages
	// processors, §III-C) and returns to service after an exponential
	// repair time of mean MTTR.
	MTBF sim.Time
	// MTTR is the mean repair time (default 4 h when MTBF is set).
	MTTR sim.Time
	// LinkMTBF enables link-failure injection: every link whose class name
	// is a key fails after an exponential uptime with the given mean (a
	// renewal process per link, driven off the same fault stream as
	// machine failures). Messages in flight on a failed link are dropped;
	// routing heals around it while it is down.
	LinkMTBF map[string]sim.Time
	// LinkMTTR is the per-class mean link repair time (default 15 min for
	// classes present in LinkMTBF).
	LinkMTTR map[string]sim.Time
	// LinkLoss sets a per-class message-loss probability in [0,1]: each
	// message crossing a link of the class is dropped with the given
	// probability, independent of link failures.
	LinkLoss map[string]float64
	// GatewayMTBF enables building-gateway failure when positive: each
	// building's gateway pair (edge + DCC) fails together after an
	// exponential uptime with this mean, severing the whole building, and
	// recovers after an exponential repair time of mean GatewayMTTR
	// (default 30 min).
	GatewayMTBF sim.Time
	// GatewayMTTR is the mean gateway repair time.
	GatewayMTTR sim.Time
	// Collaborative switches each heater building to the §II-C
	// collaborative heating request: its rooms coordinate to hold the
	// *mean* building temperature at ComfortSetpoint instead of following
	// individual schedules.
	Collaborative bool
	// Derate, when set, scales every DF machine's electrical budget by
	// its value in [0,1] at each control tick — the §III-A smart-grid
	// demand-response channel.
	Derate func(t sim.Time) float64
}

// DefaultConfig returns a 6-building, 8-rooms-each Paris winter scenario.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Calendar:         sim.NovemberStart,
		Climate:          weather.Paris,
		Buildings:        6,
		RoomsPerBuilding: 8,
		RoomSpec:         thermal.Apartment,
		HeaterSpec:       server.QradSpec(),
		BoilerSpec:       server.SmallBoilerSpec(),
		ComfortSetpoint:  21,
		SetbackSetpoint:  17,
		Backup:           true,
		ProportionalBand: 0.8,
		Middleware:       core.DefaultConfig(),
		DatacenterNodes:  8,
		ControlPeriod:    60,
	}
}

// Room is one heated space with its co-located device and (in heater
// buildings) its DF server.
type Room struct {
	Building int
	Index    int
	Zone     *thermal.Zone
	Comfort  *thermal.Comfort
	Schedule regulator.Schedule
	// Node hosts both the room's worker and its IoT device.
	Node network.NodeID
	// Worker is nil in boiler buildings (the boiler is the worker).
	Worker *core.Worker
	// Loop is nil in boiler buildings.
	Loop *regulator.HeaterLoop
}

// Building groups rooms and the cluster serving them.
type Building struct {
	Index   int
	Rooms   []*Room
	Cluster *core.Cluster
	// Boiler is non-nil for boiler plants.
	Boiler *BoilerPlant
	// Coordinator is non-nil when Config.Collaborative is set: the
	// building-mean heating coordinator.
	Coordinator *regulator.Collaborative
	// Pos is the building position for clustering experiments.
	Pos cluster.Point
}

// City is a fully wired scenario.
type City struct {
	Cfg       Config
	Engine    *sim.Engine
	Net       *network.Fabric
	MW        *core.Middleware
	Weather   *weather.Generator
	Buildings []*Building
	Operator  network.NodeID
	DCNode    network.NodeID
	// Fleet is every DF machine; HeaterFleet and BoilerFleet are the
	// per-platform views (their union is Fleet).
	Fleet       server.Fleet
	HeaterFleet server.Fleet
	BoilerFleet server.Fleet
	DCFleet     server.Fleet
	// CapacitySeries samples fleet capacity (core-equivalents) every
	// hour; OutdoorSeries samples outdoor temperature on the same tick.
	CapacitySeries metrics.Series
	OutdoorSeries  metrics.Series
	// Outages counts machine failures injected so far.
	Outages metrics.Counter
	// LinkOutages and GatewayOutages count injected network failures.
	LinkOutages    metrics.Counter
	GatewayOutages metrics.Counter
	// MessagesLost counts messages the fabric dropped (random loss, dead
	// links, severed nodes).
	MessagesLost metrics.Counter

	stream *rng.Stream
	faults *rng.Stream
	// registry is the lazily built Observability() metrics registry.
	registry *metrics.Registry
}

// Build wires the scenario. The engine starts at time zero; call Run.
func Build(cfg Config) *City {
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = 60
	}
	e := sim.New()
	net := network.NewFabric(e)
	if cfg.MTBF > 0 && cfg.MTTR <= 0 {
		cfg.MTTR = 4 * sim.Hour
	}
	if cfg.GatewayMTBF > 0 && cfg.GatewayMTTR <= 0 {
		cfg.GatewayMTTR = 30 * sim.Minute
	}
	c := &City{
		Cfg:     cfg,
		Engine:  e,
		Net:     net,
		MW:      core.New(e, net, cfg.Middleware),
		Weather: weather.New(cfg.Climate, cfg.Calendar, cfg.Seed),
		stream:  rng.New(cfg.Seed).Fork(77),
		faults:  rng.New(cfg.Seed).Fork(91),
	}

	c.Operator = net.AddNode("operator")
	c.DCNode = net.AddNode("datacenter")
	var dcMachines []*server.Machine
	for i := 0; i < cfg.DatacenterNodes; i++ {
		m := server.DatacenterNodeSpec().Build(e, fmt.Sprintf("dc-%d", i))
		dcMachines = append(dcMachines, m)
		c.DCFleet.Add(m)
	}
	net.Connect(c.Operator, c.DCNode, network.Fibre)

	var gws []network.NodeID
	for b := 0; b < cfg.Buildings; b++ {
		bld := c.buildBuilding(b)
		c.Buildings = append(c.Buildings, bld)
		gws = append(gws, bld.Cluster.EdgeGW)
	}
	// Metro mesh between buildings; operator and DC reachable from all.
	for i := 0; i < len(gws); i++ {
		for j := i + 1; j < len(gws); j++ {
			net.Connect(gws[i], gws[j], network.Metro)
		}
	}
	for _, b := range c.Buildings {
		net.Connect(c.Operator, b.Cluster.DCCGW, network.Fibre)
		net.Connect(b.Cluster.EdgeGW, c.DCNode, network.Internet)
	}
	c.MW.PeerAll()
	if cfg.DatacenterNodes > 0 {
		c.MW.SetDatacenter(c.DCNode, dcMachines)
	}

	net.OnLoss = func(network.NodeID, network.NodeID, units.Byte) { c.MessagesLost.Inc() }
	if lossOn := c.armLoss(); lossOn {
		// Forked only when loss is actually enabled: Fork advances the
		// parent stream, and the machine-fault draw sequence must stay
		// identical when the chaos knobs are off.
		net.SetLossRNG(c.faults.Fork(101))
	}
	if len(cfg.LinkMTBF) > 0 {
		c.armLinkFaults()
	}
	if cfg.GatewayMTBF > 0 {
		c.armGatewayFaults()
	}

	// The hourly series share one tick domain: one heap event per hour,
	// which callers may subscribe further samplers to.
	c.CapacitySeries.SampleEvery(e, sim.Hour, func(float64) float64 { return c.Fleet.Capacity() })
	c.OutdoorSeries.SampleEvery(e, sim.Hour, func(now float64) float64 {
		return float64(c.Weather.OutdoorTemp(now))
	})
	return c
}

// thermostat builds a fresh controller per room.
func (c *City) thermostat() regulator.Thermostat {
	if c.Cfg.ProportionalBand <= 0 {
		return &regulator.Hysteresis{Band: 0.4}
	}
	return regulator.Proportional{Band: c.Cfg.ProportionalBand}
}

// schedule builds a room's setpoint schedule.
func (c *City) schedule() regulator.Schedule {
	var inner regulator.Schedule
	if c.Cfg.Offices {
		inner = regulator.OfficeSchedule{
			Calendar: c.Cfg.Calendar,
			Comfort:  c.Cfg.ComfortSetpoint,
			Setback:  c.Cfg.SetbackSetpoint,
		}
	} else {
		inner = regulator.HomeSchedule{
			Calendar: c.Cfg.Calendar,
			Comfort:  c.Cfg.ComfortSetpoint,
			Setback:  c.Cfg.SetbackSetpoint,
		}
	}
	if c.Cfg.HeatingSeasonFirst != 0 || c.Cfg.HeatingSeasonLast != 0 {
		return regulator.SeasonalOff{
			Inner:      inner,
			Calendar:   c.Cfg.Calendar,
			FirstMonth: c.Cfg.HeatingSeasonFirst,
			LastMonth:  c.Cfg.HeatingSeasonLast,
		}
	}
	return inner
}

// gains returns the internal-gains model for a room: occupants plus a
// midday solar bump.
func (c *City) gains(s regulator.Schedule) func(sim.Time) units.Watt {
	cal := c.Cfg.Calendar
	return func(t sim.Time) units.Watt {
		g := units.Watt(0)
		if _, occ := s.At(t); occ {
			g += 90 // one person + appliances
		}
		h := cal.HourOfDay(t)
		if h > 10 && h < 16 {
			g += 120 // solar gain through windows
		}
		return g
	}
}

// buildBuilding wires one building: nodes, rooms, loops, cluster.
func (c *City) buildBuilding(b int) *Building {
	cfg := c.Cfg
	e := c.Engine
	net := c.Net
	bld := &Building{
		Index: b,
		Pos: cluster.Point{
			X: float64(b%3)*400 + c.stream.Float64()*100,
			Y: float64(b/3)*400 + c.stream.Float64()*100,
		},
	}
	edgeGW := net.AddNode(fmt.Sprintf("b%d-edge-gw", b))
	dccGW := net.AddNode(fmt.Sprintf("b%d-dcc-gw", b))
	net.Connect(edgeGW, dccGW, network.LAN)

	isBoiler := b < cfg.BoilerBuildings
	var workers []*core.Worker
	var plant *BoilerPlant
	if cfg.Collaborative && !isBoiler {
		bld.Coordinator = regulator.NewCollaborative(cfg.ComfortSetpoint)
		// Bound before the room loops start, so each control tick the
		// coordinator snapshots the building mean once and every room
		// reads a consistent setpoint.
		bld.Coordinator.Bind(e, cfg.ControlPeriod)
	}

	if isBoiler {
		plant = newBoilerPlant(c, b, edgeGW)
		bld.Boiler = plant
		workers = append(workers, plant.Worker)
	}

	for r := 0; r < cfg.RoomsPerBuilding; r++ {
		node := net.AddNode(fmt.Sprintf("b%d-r%d", b, r))
		net.Connect(node, edgeGW, network.LAN)
		room := &Room{
			Building: b,
			Index:    r,
			Zone:     thermal.NewZone(cfg.RoomSpec),
			Comfort:  thermal.NewComfort(1.5, cfg.Calendar),
			Node:     node,
		}
		var sched regulator.Schedule
		if bld.Coordinator != nil {
			sched = bld.Coordinator.ScheduleFor(bld.Coordinator.Attach(room.Zone))
		} else {
			sched = c.schedule()
		}
		room.Schedule = sched
		room.Zone.Temp = cfg.ComfortSetpoint - 1 // heating established
		if isBoiler {
			plant.attach(room)
		} else {
			m := cfg.HeaterSpec.Build(e, fmt.Sprintf("qrad-b%d-r%d", b, r))
			// Heaters serve latency-bound edge requests: when the
			// thermostat throttles the budget, expose few full-speed
			// cores rather than many slow ones, and keep the always-on
			// service allowance (one top-speed core) powered so the edge
			// survives zero heat demand.
			m.Policy = server.MaxSpeed
			m.FloorW = m.Model.IdleW + units.Watt(float64(m.Model.DynamicW)/float64(m.Cores))
			m.SetBudget(m.Budget())
			c.Fleet.Add(m)
			c.HeaterFleet.Add(m)
			room.Worker = &core.Worker{M: m, Node: node}
			workers = append(workers, room.Worker)
			room.Loop = &regulator.HeaterLoop{
				Zone:       room.Zone,
				Machine:    m,
				Thermostat: c.thermostat(),
				Schedule:   sched,
				Weather:    c.Weather,
				Gains:      c.gains(sched),
				Backup:     cfg.Backup,
				Comfort:    room.Comfort,
				Derate:     cfg.Derate,
			}
			room.Loop.Start(e, cfg.ControlPeriod)
		}
		bld.Rooms = append(bld.Rooms, room)
	}
	if isBoiler {
		plant.start()
	}
	bld.Cluster = c.MW.AddCluster(edgeGW, dccGW, workers)
	if cfg.MTBF > 0 {
		for _, w := range workers {
			c.armFaults(bld.Cluster, w)
		}
	}
	return bld
}

// armFaults runs one worker's fail/repair renewal process. The renewal
// events are transient (never cancelled, handle never kept), so they ride
// the kernel's event free list.
func (c *City) armFaults(cl *core.Cluster, w *core.Worker) {
	var up, down func()
	up = func() {
		c.Engine.AfterTransient(c.faults.Exp(1/float64(c.Cfg.MTBF)), func() {
			c.Outages.Inc()
			cl.FailWorker(w)
			down()
		})
	}
	down = func() {
		c.Engine.AfterTransient(c.faults.Exp(1/float64(c.Cfg.MTTR)), func() {
			cl.RestoreWorker(w)
			up()
		})
	}
	up()
}

// armLoss installs the per-class random-loss probabilities and reports
// whether any class actually has loss enabled (so the caller only forks
// the loss RNG when needed).
func (c *City) armLoss() bool {
	if len(c.Cfg.LinkLoss) == 0 {
		return false
	}
	classes := make([]string, 0, len(c.Cfg.LinkLoss))
	for k := range c.Cfg.LinkLoss {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	on := false
	for _, k := range classes {
		if p := c.Cfg.LinkLoss[k]; p > 0 {
			c.Net.SetLoss(k, p)
			on = true
		}
	}
	return on
}

// armLinkFaults runs a fail/repair renewal process on every link whose
// class appears in LinkMTBF. Pairs() returns links in wiring order, so
// the renewal schedule is deterministic for a given seed.
func (c *City) armLinkFaults() {
	for _, p := range c.Net.Pairs() {
		l := c.Net.Link(p[0], p[1])
		mtbf := c.Cfg.LinkMTBF[l.Class]
		if mtbf <= 0 {
			continue
		}
		mttr := c.Cfg.LinkMTTR[l.Class]
		if mttr <= 0 {
			mttr = 15 * sim.Minute
		}
		c.armLinkFault(p[0], p[1], mtbf, mttr)
	}
}

// armLinkFault is one link's renewal process.
func (c *City) armLinkFault(a, b network.NodeID, mtbf, mttr sim.Time) {
	var up, down func()
	up = func() {
		c.Engine.AfterTransient(c.faults.Exp(1/float64(mtbf)), func() {
			c.LinkOutages.Inc()
			c.Net.FailLink(a, b)
			down()
		})
	}
	down = func() {
		c.Engine.AfterTransient(c.faults.Exp(1/float64(mttr)), func() {
			c.Net.RestoreLink(a, b)
			up()
		})
	}
	up()
}

// armGatewayFaults runs a renewal process per building that fails the
// edge and DCC gateways together — the whole-building outage of §III-B's
// network question: rooms keep heating (the thermal loops are local) but
// the building drops off the compute fabric until repair.
func (c *City) armGatewayFaults() {
	for _, b := range c.Buildings {
		edge, dcc := b.Cluster.EdgeGW, b.Cluster.DCCGW
		var up, down func()
		up = func() {
			c.Engine.AfterTransient(c.faults.Exp(1/float64(c.Cfg.GatewayMTBF)), func() {
				c.GatewayOutages.Inc()
				c.Net.FailNode(edge)
				c.Net.FailNode(dcc)
				down()
			})
		}
		down = func() {
			c.Engine.AfterTransient(c.faults.Exp(1/float64(c.Cfg.GatewayMTTR)), func() {
				c.Net.RestoreNode(edge)
				c.Net.RestoreNode(dcc)
				up()
			})
		}
		up()
	}
}

// Now returns the scenario's current simulated time.
func (c *City) Now() sim.Time { return c.Engine.Now() }

// Run advances the scenario to `until` as fast as events execute.
func (c *City) Run(until sim.Time) { c.Engine.Run(until) }

// Rooms yields every room in the city.
func (c *City) Rooms() []*Room {
	var out []*Room
	for _, b := range c.Buildings {
		out = append(out, b.Rooms...)
	}
	return out
}

// MonthlyComfort averages every room's monthly mean temperature into
// per-month city means — the Fig. 4 output. Only months with samples
// appear.
func (c *City) MonthlyComfort() (months []int, means []float64) {
	sums := map[int]float64{}
	counts := map[int]int{}
	for _, r := range c.Rooms() {
		ms, vs := r.Comfort.MonthlyMeans()
		for i, m := range ms {
			sums[m] += vs[i]
			counts[m]++
		}
	}
	for m := 1; m <= 12; m++ {
		if counts[m] > 0 {
			months = append(months, m)
			means = append(means, sums[m]/float64(counts[m]))
		}
	}
	return months, means
}

// ResistorEnergy sums backup-resistor energy across heater rooms.
func (c *City) ResistorEnergy() units.Joule {
	var total units.Joule
	for _, r := range c.Rooms() {
		if r.Loop != nil {
			total += r.Loop.ResistorEnergy()
		}
	}
	return total
}

// WastedBoilerHeat sums dumped heat across boiler plants.
func (c *City) WastedBoilerHeat() units.Joule {
	var total units.Joule
	for _, b := range c.Buildings {
		if b.Boiler != nil {
			total += b.Boiler.Loop.Wasted()
		}
	}
	return total
}

// Sites returns the clustering view of the city (one site per worker).
func (c *City) Sites() []cluster.Site {
	var sites []cluster.Site
	id := 0
	for _, b := range c.Buildings {
		for _, r := range b.Rooms {
			if r.Worker != nil {
				sites = append(sites, cluster.Site{
					ID:       id,
					Building: b.Index,
					Pos: cluster.Point{
						X: b.Pos.X + float64(r.Index%4)*8,
						Y: b.Pos.Y + float64(r.Index/4)*8,
					},
				})
				id++
			}
		}
		if b.Boiler != nil {
			sites = append(sites, cluster.Site{ID: id, Building: b.Index, Pos: b.Pos})
			id++
		}
	}
	return sites
}
