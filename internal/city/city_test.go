package city

import (
	"testing"

	"df3/internal/sim"
	"df3/internal/weather"
)

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Buildings = 2
	cfg.RoomsPerBuilding = 3
	cfg.DatacenterNodes = 2
	return cfg
}

func TestBuildShape(t *testing.T) {
	c := Build(smallCfg())
	if len(c.Buildings) != 2 {
		t.Fatalf("%d buildings", len(c.Buildings))
	}
	if len(c.MW.Clusters()) != 2 {
		t.Fatalf("%d clusters", len(c.MW.Clusters()))
	}
	if len(c.Rooms()) != 6 {
		t.Fatalf("%d rooms", len(c.Rooms()))
	}
	for _, b := range c.Buildings {
		if len(b.Cluster.Workers()) != 3 {
			t.Errorf("building %d has %d workers", b.Index, len(b.Cluster.Workers()))
		}
		if len(b.Cluster.Neighbors()) != 1 {
			t.Errorf("building %d has %d neighbours", b.Index, len(b.Cluster.Neighbors()))
		}
	}
	if c.Fleet.MaxCapacity() != 6*16 {
		t.Errorf("fleet capacity = %v", c.Fleet.MaxCapacity())
	}
}

func TestComfortHoldsWithSaturatedFleet(t *testing.T) {
	cfg := smallCfg()
	c := Build(cfg)
	stop := c.SaturateDCC(600, 64)
	defer stop()
	c.Run(3 * sim.Day)
	for _, r := range c.Rooms() {
		if r.Comfort.InBandFraction() < 0.7 {
			t.Errorf("room b%d-r%d in-band fraction %v", r.Building, r.Index, r.Comfort.InBandFraction())
		}
	}
}

func TestEdgeTrafficServed(t *testing.T) {
	cfg := smallCfg()
	c := Build(cfg)
	stop := c.SaturateDCC(600, 32)
	defer stop()
	c.StartEdgeTraffic(sim.Day, 1)
	c.Run(sim.Day)
	if c.MW.Edge.Arrived() == 0 {
		t.Fatal("no edge traffic arrived")
	}
	if rate := c.MW.Edge.MissRate(); rate > 0.1 {
		t.Errorf("edge miss rate = %v", rate)
	}
}

func TestDirectEdgeTraffic(t *testing.T) {
	cfg := smallCfg()
	c := Build(cfg)
	c.StartDirectEdgeTraffic(12*sim.Hour, 1)
	c.Run(12 * sim.Hour)
	if c.MW.Edge.Served.Value() == 0 {
		t.Fatal("no direct requests served")
	}
}

func TestSenseLoops(t *testing.T) {
	cfg := smallCfg()
	c := Build(cfg)
	c.StartSenseLoops(sim.Hour, 60)
	c.Run(sim.Hour)
	// 6 rooms × ~59 periods.
	if c.MW.Edge.Served.Value() < 300 {
		t.Errorf("sense loops served = %d", c.MW.Edge.Served.Value())
	}
	if c.MW.Edge.MissRate() > 0.05 {
		t.Errorf("sense miss rate = %v", c.MW.Edge.MissRate())
	}
}

func TestDCCTraffic(t *testing.T) {
	cfg := smallCfg()
	c := Build(cfg)
	c.StartDCCTraffic(2*sim.Day, 0.5)
	c.Run(4 * sim.Day)
	if c.MW.DCC.JobsDone.Value() == 0 {
		t.Fatal("no DCC jobs completed")
	}
	if c.MW.DCC.WorkDone <= 0 {
		t.Error("no work credited")
	}
}

func TestBoilerBuilding(t *testing.T) {
	cfg := smallCfg()
	cfg.BoilerBuildings = 1
	c := Build(cfg)
	b0 := c.Buildings[0]
	if b0.Boiler == nil {
		t.Fatal("building 0 has no boiler")
	}
	// Boiler building: 1 boiler worker; heater building: 3 workers.
	if len(b0.Cluster.Workers()) != 1 {
		t.Errorf("boiler cluster has %d workers", len(b0.Cluster.Workers()))
	}
	if b0.Rooms[0].Worker != nil || b0.Rooms[0].Loop != nil {
		t.Error("boiler building rooms should have no per-room heater")
	}
	stop := c.SaturateDCC(600, 64)
	defer stop()
	c.Run(3 * sim.Day)
	// The boiler must keep its rooms within reach of the setpoint.
	for _, r := range b0.Rooms {
		if r.Comfort.InBandFraction() < 0.5 {
			t.Errorf("boiler room %d in-band = %v (temp %v)", r.Index, r.Comfort.InBandFraction(), r.Zone.Temp)
		}
	}
}

func TestMonthlyComfortOutput(t *testing.T) {
	cfg := smallCfg()
	c := Build(cfg)
	stop := c.SaturateDCC(600, 32)
	defer stop()
	c.Run(40 * sim.Day) // spans November into December
	months, means := c.MonthlyComfort()
	if len(months) < 2 {
		t.Fatalf("months = %v", months)
	}
	if months[0] != 11 && months[len(months)-1] != 12 {
		t.Errorf("expected Nov/Dec, got %v", months)
	}
	for i, m := range means {
		if m < 15 || m > 25 {
			t.Errorf("month %d mean temp %v out of plausible band", months[i], m)
		}
	}
}

func TestSeriesSampled(t *testing.T) {
	cfg := smallCfg()
	c := Build(cfg)
	c.Run(2 * sim.Day)
	if c.CapacitySeries.Len() < 40 {
		t.Errorf("capacity samples = %d", c.CapacitySeries.Len())
	}
	if c.OutdoorSeries.Len() != c.CapacitySeries.Len() {
		t.Error("series lengths diverge")
	}
}

func TestSites(t *testing.T) {
	cfg := smallCfg()
	cfg.BoilerBuildings = 1
	c := Build(cfg)
	sites := c.Sites()
	// Building 0: 1 boiler site; building 1: 3 worker sites.
	if len(sites) != 4 {
		t.Fatalf("%d sites", len(sites))
	}
	seen := map[int]bool{}
	for _, s := range sites {
		if seen[s.ID] {
			t.Error("duplicate site id")
		}
		seen[s.ID] = true
	}
}

func TestDeterministicCity(t *testing.T) {
	run := func() (int64, float64) {
		c := Build(smallCfg())
		c.StartEdgeTraffic(sim.Day, 1)
		stop := c.SaturateDCC(600, 16)
		defer stop()
		c.Run(sim.Day)
		return c.MW.Edge.Served.Value(), c.MW.Edge.Latency.Mean()
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 || l1 != l2 {
		t.Errorf("city runs diverged: %d/%v vs %d/%v", s1, l1, s2, l2)
	}
}

func TestCollaborativeCity(t *testing.T) {
	cfg := smallCfg()
	cfg.Collaborative = true
	c := Build(cfg)
	stop := c.SaturateDCC(600, 32)
	defer stop()
	c.Run(3 * sim.Day)
	for _, b := range c.Buildings {
		if b.Coordinator == nil {
			t.Fatal("collaborative building missing coordinator")
		}
		mean := float64(b.Coordinator.Mean())
		if mean < 19.5 || mean > 22.5 {
			t.Errorf("building %d mean = %v, want ~21", b.Index, mean)
		}
	}
}

func TestCollaborativeSkipsBoilerBuildings(t *testing.T) {
	cfg := smallCfg()
	cfg.Collaborative = true
	cfg.BoilerBuildings = 1
	c := Build(cfg)
	if c.Buildings[0].Coordinator != nil {
		t.Error("boiler building should not get a coordinator")
	}
	if c.Buildings[1].Coordinator == nil {
		t.Error("heater building should get a coordinator")
	}
}

func TestSubmitCampaignShards(t *testing.T) {
	cfg := smallCfg()
	c := Build(cfg)
	job := workloadJob(10)
	c.SubmitCampaign(job)
	c.Run(sim.Hour)
	if got := c.MW.DCC.TasksDone.Value(); got != 10 {
		t.Errorf("campaign tasks done = %d, want 10", got)
	}
	// All shards complete => jobs done equals number of non-empty shards.
	if got := c.MW.DCC.JobsDone.Value(); got != int64(len(c.Buildings)) {
		t.Errorf("campaign shards done = %d, want %d", got, len(c.Buildings))
	}
}

func TestFinanceTrafficMeetsOvernightWindow(t *testing.T) {
	cfg := smallCfg()
	cfg.Buildings = 3
	cfg.RoomsPerBuilding = 6 // 288 cores max; nightly batch ~13 core-hours
	c := Build(cfg)
	out := c.StartFinanceTraffic(5 * sim.Day)
	c.Run(7 * sim.Day)
	if out.Submitted == 0 {
		t.Fatal("no finance batches submitted")
	}
	if out.OnTime+out.Late != out.Submitted {
		t.Errorf("outcome mismatch: %d+%d != %d", out.OnTime, out.Late, out.Submitted)
	}
	if out.Late > 0 {
		t.Errorf("%d/%d overnight batches late on an amply sized fleet", out.Late, out.Submitted)
	}
}

func TestSevilleSummerIdlesFleet(t *testing.T) {
	// A hot climate out of heating season: heater capacity collapses to
	// the always-on service floor (1 core per heater), §III-C's stability
	// worry made concrete.
	cfg := smallCfg()
	cfg.Climate = weather.Seville
	cfg.Calendar = sim.Calendar{StartDayOfYear: 6 * 365.0 / 12} // July
	cfg.HeatingSeasonFirst = 10
	cfg.HeatingSeasonLast = 4
	c := Build(cfg)
	stop := c.SaturateDCC(600, 64)
	defer stop()
	c.Run(3 * sim.Day)
	perHeater := c.HeaterFleet.Capacity() / float64(len(c.HeaterFleet.Machines))
	if perHeater > 1.01 {
		t.Errorf("summer Seville capacity %v cores/heater, want the 1-core floor", perHeater)
	}
	// Nobody overheats their home for compute: rooms stay below the vent
	// ceiling despite saturation demand.
	for _, r := range c.Rooms() {
		if float64(r.Zone.Temp) > 40 {
			t.Errorf("room at %v in summer", r.Zone.Temp)
		}
	}
}
