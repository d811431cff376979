package server

import (
	"math"
	"testing"
	"testing/quick"

	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/units"
)

func newQrad(e *sim.Engine) *Machine { return QradSpec().Build(e, "qrad-0") }

func TestTaskRunsToCompletion(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	var doneAt sim.Time = -1
	task := &Task{ID: 1, Work: 100, OnDone: func(at sim.Time) { doneAt = at }}
	if !m.Start(task) {
		t.Fatal("start rejected on empty machine")
	}
	e.Run(1000)
	if doneAt != 100 { // full speed: 100 core-seconds takes 100 s
		t.Errorf("task finished at %v, want 100", doneAt)
	}
	if m.AssignedTasks() != 0 {
		t.Error("finished task still assigned")
	}
}

func TestParallelTasks(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	done := 0
	for i := 0; i < 16; i++ {
		if !m.Start(&Task{Work: 50, OnDone: func(sim.Time) { done++ }}) {
			t.Fatalf("slot %d rejected", i)
		}
	}
	if m.FreeSlots() != 0 {
		t.Errorf("free slots = %d after filling", m.FreeSlots())
	}
	if m.Start(&Task{Work: 1}) {
		t.Error("17th task accepted on 16-core machine")
	}
	e.Run(51)
	if done != 16 {
		t.Errorf("%d tasks done, want 16", done)
	}
}

func TestBudgetSlowsTasks(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	var doneAt sim.Time
	m.Start(&Task{Work: 100, OnDone: func(at sim.Time) { doneAt = at }})
	// Cut the budget so the DVFS level drops below full speed.
	m.SetBudget(200)
	if m.Speed() >= 1 {
		t.Fatalf("speed %v at 200 W budget, want < 1", m.Speed())
	}
	e.Run(10000)
	want := 100 / m.Speed()
	if math.Abs(doneAt-want) > 1e-6 {
		t.Errorf("task finished at %v, want %v", doneAt, want)
	}
}

func TestMidFlightBudgetChange(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	var doneAt sim.Time
	m.Start(&Task{Work: 100, OnDone: func(at sim.Time) { doneAt = at }})
	// Run 50 s at full speed, then drop to half-capable budget.
	e.Run(50)
	m.SetBudget(200)
	speed := m.Speed()
	e.Run(10000)
	want := 50 + 50/speed
	if math.Abs(doneAt-want) > 1e-6 {
		t.Errorf("task finished at %v, want %v (speed %v)", doneAt, want, speed)
	}
}

func TestZeroBudgetSuspends(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	done := false
	m.Start(&Task{Work: 10, OnDone: func(sim.Time) { done = true }})
	m.SetBudget(0)
	if m.ActiveCores() != 0 || m.Speed() != 0 {
		t.Errorf("active=%d speed=%v at zero budget", m.ActiveCores(), m.Speed())
	}
	e.Run(1000)
	if done {
		t.Error("task completed while machine was powered off")
	}
	// Restore power: the task resumes and finishes.
	m.SetBudget(500)
	e.Run(2000)
	if !done {
		t.Error("task did not resume after power restored")
	}
}

func TestBudgetBelowIdlePowersOff(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	m.SetBudget(10) // below IdleW=30
	if m.ActiveCores() != 0 {
		t.Errorf("active cores = %d below idle budget", m.ActiveCores())
	}
	if m.Draw() != 0 {
		t.Errorf("draw = %v when powered off", m.Draw())
	}
}

func TestPartialBudgetGatesCores(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	m.Policy = MaxSpeed
	m.SetBudget(150) // idle 30 + 120 dynamic; full speed costs 470/16≈29.4/core
	if m.ActiveCores() == 0 || m.ActiveCores() == m.Cores {
		t.Errorf("active cores = %d, want partial gating", m.ActiveCores())
	}
	if m.Speed() != 1 {
		t.Errorf("MaxSpeed policy picked speed %v", m.Speed())
	}
}

func TestPolicyThroughputVsSpeed(t *testing.T) {
	e := sim.New()
	mt := newQrad(e)
	mt.Policy = MaxThroughput
	mt.SetBudget(150)
	ms := newQrad(e)
	ms.Policy = MaxSpeed
	ms.SetBudget(150)
	if mt.Capacity() < ms.Capacity() {
		t.Errorf("throughput policy capacity %v < speed policy %v", mt.Capacity(), ms.Capacity())
	}
	if ms.Speed() < mt.Speed() {
		t.Errorf("speed policy speed %v < throughput policy %v", ms.Speed(), mt.Speed())
	}
}

func TestSuspensionKeepsOldestRunning(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	first := &Task{Work: 1000}
	m.Start(first)
	for i := 0; i < 15; i++ {
		m.Start(&Task{Work: 1000})
	}
	// Gate down to a handful of cores: the oldest tasks keep running.
	m.SetBudget(150)
	if !first.Running() {
		t.Error("oldest task was suspended before younger ones")
	}
	running := m.RunningTasks()
	if running != m.ActiveCores() {
		t.Errorf("running=%d active=%d", running, m.ActiveCores())
	}
}

func TestPreemptReturnsRemaining(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	task := &Task{Work: 100}
	m.Start(task)
	e.Run(30)
	rem := m.Preempt(task)
	if math.Abs(rem-70) > 1e-9 {
		t.Errorf("remaining = %v, want 70", rem)
	}
	if task.Assigned() {
		t.Error("preempted task still assigned")
	}
	if task.Work != rem {
		t.Errorf("task.Work = %v, want %v for resubmission", task.Work, rem)
	}
	// Resubmit elsewhere: it should take exactly the remaining time.
	m2 := newQrad(e)
	var doneAt sim.Time
	task.OnDone = func(at sim.Time) { doneAt = at }
	m2.Start(task)
	e.Run(1000)
	if math.Abs(doneAt-100) > 1e-9 { // 30 elapsed + 70 remaining
		t.Errorf("resumed task finished at %v, want 100", doneAt)
	}
}

func TestVictimPicksYoungest(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	const dcc = 2
	a := &Task{Work: 100, Class: dcc}
	b := &Task{Work: 100, Class: dcc}
	edge := &Task{Work: 100, Class: 1}
	m.Start(a)
	m.Start(b)
	m.Start(edge)
	if v := m.Victim(dcc); v != b {
		t.Error("victim is not the youngest DCC task")
	}
	if v := m.Victim(7); v != nil {
		t.Error("victim for absent class should be nil")
	}
}

func TestOnCapacityFires(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	fired := 0
	m.OnCapacity(func() { fired++ })
	m.Start(&Task{Work: 10})
	e.Run(20)
	if fired == 0 {
		t.Error("capacity callback did not fire on task completion")
	}
	before := fired
	m.SetBudget(0)
	m.SetBudget(500) // growth must notify
	if fired <= before {
		t.Error("capacity callback did not fire on budget growth")
	}
}

func TestDrawAndHeatTrackLoad(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	idle := m.Draw()
	m.Start(&Task{Work: 1e9})
	oneTask := m.Draw()
	if oneTask <= idle {
		t.Errorf("draw did not rise with load: %v -> %v", idle, oneTask)
	}
	heat := m.HeatOutput()
	if math.Abs(float64(heat)-float64(oneTask)*0.95) > 1e-9 {
		t.Errorf("heat %v not 95%% of draw %v", heat, oneTask)
	}
}

func TestEnergyMeterIntegratesLoad(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	m.Start(&Task{Work: 100})
	e.Run(100)
	m.FlushMeter()
	it := m.Meter().ITEnergy()
	if it <= 0 {
		t.Fatal("no energy recorded")
	}
	// One core of 16 at full level for 100 s: 30 + 470/16 ≈ 59.4 W.
	want := (30 + 470.0/16) * 100
	if math.Abs(float64(it)-want) > 1 {
		t.Errorf("IT energy = %v, want ~%v J", float64(it), want)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	task := &Task{Work: 10}
	m.Start(task)
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	m.Start(task)
}

func TestPreemptForeignTaskPanics(t *testing.T) {
	e := sim.New()
	m1, m2 := newQrad(e), newQrad(e)
	task := &Task{Work: 10}
	m1.Start(task)
	defer func() {
		if recover() == nil {
			t.Error("foreign preempt did not panic")
		}
	}()
	m2.Preempt(task)
}

// Property: work is conserved — under random budget changes and preempts,
// every task's total progress time × speed equals its original work when it
// completes.
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		e := sim.New()
		m := newQrad(e)
		done, accepted := 0, 0
		for i := 0; i < 20; i++ {
			if m.Start(&Task{Work: 10 + s.Float64()*50, OnDone: func(sim.Time) { done++ }}) {
				accepted++
			}
		}
		for step := 0; step < 40; step++ {
			e.Run(e.Now() + s.Float64()*20)
			m.SetBudget(units.Watt(s.Float64() * 600))
		}
		m.SetBudget(500)
		e.Run(e.Now() + 1e5)
		return done == accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the machine's electrical draw never exceeds its budget
// whenever the budget covers at least the idle floor — the guarantee the
// heat regulator relies on ("the energy consumed corresponds to the heat
// demand", §III-B). Below the idle floor the machine is off and draws 0.
func TestDrawNeverExceedsBudgetProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		e := sim.New()
		m := newQrad(e)
		if s.Bool(0.5) {
			m.Policy = MaxSpeed
		}
		for i := 0; i < 10+s.Intn(10); i++ {
			m.Start(&Task{Work: 1 + s.Float64()*500})
		}
		for step := 0; step < 60; step++ {
			budget := units.Watt(s.Float64() * 600)
			m.SetBudget(budget)
			e.Run(e.Now() + s.Float64()*30)
			draw := float64(m.Draw())
			if draw == 0 {
				continue
			}
			if draw > float64(budget)+1e-9 {
				t.Logf("draw %v exceeds budget %v (policy %v)", draw, budget, m.Policy)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEvacuateBanksProgress(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	a := &Task{Work: 100}
	b := &Task{Work: 200}
	m.Start(a)
	m.Start(b)
	e.Run(40)
	out := m.Evacuate()
	if len(out) != 2 {
		t.Fatalf("evacuated %d tasks", len(out))
	}
	if math.Abs(out[0].Work-60) > 1e-9 || math.Abs(out[1].Work-160) > 1e-9 {
		t.Errorf("banked work = %v, %v; want 60, 160", out[0].Work, out[1].Work)
	}
	if m.AssignedTasks() != 0 {
		t.Error("machine still holds tasks after evacuation")
	}
}

func TestOfflineMachineRefusesWork(t *testing.T) {
	e := sim.New()
	m := newQrad(e)
	m.SetOffline(true)
	if m.Start(&Task{Work: 1}) {
		t.Error("offline machine accepted a task")
	}
	if m.Capacity() != 0 || m.Draw() != 0 {
		t.Errorf("offline capacity=%v draw=%v", m.Capacity(), m.Draw())
	}
	m.SetOffline(false)
	if !m.Start(&Task{Work: 1}) {
		t.Error("restored machine refused work")
	}
}

// TestRestartedTaskMatchesFresh: a finished task started again completes
// at the same instant as a fresh task of the same work started alongside
// it on an identical machine, and a restart allocates nothing: the
// completion Event the task holds and the callback it bound on its first
// start are reused.
func TestRestartedTaskMatchesFresh(t *testing.T) {
	e := sim.New()
	m, ref := newQrad(e), newQrad(e)
	var reusedAt, freshAt sim.Time
	reused := &Task{ID: 1, Work: 3, OnDone: func(at sim.Time) { reusedAt = at }}
	if !m.Start(reused) {
		t.Fatal("first start rejected")
	}
	e.Run(10)
	if reusedAt != 3 {
		t.Fatalf("first run finished at %v, want 3", reusedAt)
	}
	reused.Work = 7
	if !m.Start(reused) {
		t.Fatal("restart of a finished task rejected")
	}
	fresh := &Task{ID: 2, Work: 7, OnDone: func(at sim.Time) { freshAt = at }}
	ref.Start(fresh)
	e.Run(100)
	if reusedAt != freshAt || freshAt != 17 {
		t.Fatalf("restarted task finished at %v, fresh one at %v, want both 17", reusedAt, freshAt)
	}
	allocs := testing.AllocsPerRun(100, func() {
		reused.Work = 0.5
		m.Start(reused)
		e.Run(e.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("a restart allocates %v objects, want 0", allocs)
	}
}
