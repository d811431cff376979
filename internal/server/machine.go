// Package server models df3 compute machines: digital heaters, digital
// boilers, crypto-heaters, datacenter nodes and desktop PCs.
//
// A Machine owns a set of cores sharing one DVFS operating point. Tasks are
// single-core units of work measured in core-seconds at full speed (the
// workload layer decomposes multi-core jobs into tasks). The machine's
// power budget — set by the heat regulator for DF servers, pinned to max
// for datacenter nodes — determines the DVFS level and how many cores may
// run, which is exactly the paper's coupling between heat demand and
// available compute (§III-B, §III-C).
//
// Budget semantics are conservative: the (level, active cores) pair is
// chosen so that even fully loaded the machine cannot exceed its budget,
// guaranteeing the heat delivered never overshoots what the host asked for.
package server

import (
	"fmt"

	"df3/internal/power"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/units"
)

// Task is a single-core unit of work. A finished task may be started
// again, on any machine, once its OnDone has run: Start resets its
// progress, and the completion Event it holds and the callback it bound on
// its first start are reused, so a restart allocates nothing.
type Task struct {
	// ID identifies the task for tracing.
	ID uint64
	// Work is the total work in core-seconds at full speed.
	Work float64
	// OnDone is invoked when the task completes.
	OnDone func(at sim.Time)
	// Class is an opaque tag the middleware uses (edge vs DCC).
	Class int
	// Ctx is an opaque back-pointer the middleware uses to find the
	// request a task belongs to when the task is evacuated off a failed
	// machine.
	Ctx any

	remaining float64
	rate      float64 // current progress rate (0 when suspended)
	lastT     sim.Time
	machine   *Machine
	// done is the completion Event, armed while the task progresses
	// (Engine.Arm) and re-keyed in place when its rate changes.
	done sim.Event
	// fire is t.complete, bound on the task's first start and kept across
	// pauses, preemptions and restarts.
	fire    func()
	started sim.Time
	seq     uint64 // admission order on the machine, for deterministic rebalance
}

// complete finishes the task on the machine it runs on; only its
// completion Event calls it.
func (t *Task) complete() { t.machine.finish(t) }

// Remaining returns the work left, as of the machine's last state change.
func (t *Task) Remaining() float64 { return t.remaining }

// Running reports whether the task is currently progressing.
func (t *Task) Running() bool { return t.machine != nil && t.rate > 0 }

// Assigned reports whether the task occupies a slot on some machine
// (running or suspended).
func (t *Task) Assigned() bool { return t.machine != nil }

// BudgetPolicy selects how a machine converts a watt budget into a DVFS
// operating point.
type BudgetPolicy int

const (
	// MaxThroughput maximises Σ core speeds within the budget: many slow
	// cores. Best for DCC batch throughput (the cubic DVFS law makes low
	// frequencies more efficient per watt).
	MaxThroughput BudgetPolicy = iota
	// MaxSpeed maximises the per-core speed within the budget: few fast
	// cores. Best for latency-sensitive edge requests.
	MaxSpeed
)

func (p BudgetPolicy) String() string {
	if p == MaxSpeed {
		return "max-speed"
	}
	return "max-throughput"
}

// Machine is one compute server.
type Machine struct {
	Name  string
	Cores int
	Model power.Model
	// Policy selects the budget→DVFS mapping.
	Policy BudgetPolicy
	// FloorW is a lower bound applied to every budget: the always-on
	// service allowance (Q.rads keep an embedded board serving local
	// requests even when no heat is demanded). Zero means the machine may
	// power off completely.
	FloorW units.Watt

	// Tracer, when set, records the machine's offline and derate windows
	// as spans (trace id TraceTag), so Perfetto shows when and for how long
	// a worker was failed or thermally throttled below full capacity.
	Tracer *trace.Recorder
	// TraceTag correlates this machine's window spans in the trace.
	TraceTag uint64

	engine  *sim.Engine
	budget  units.Watt
	level   power.Level
	active  int // cores allowed to run under the current budget
	offline bool
	tasks   []*Task
	meter   power.Meter
	nextSq  uint64
	offSpan trace.SpanID
	derSpan trace.SpanID

	// onCapacity is invoked whenever a slot may have freed (task finished
	// or budget rose). The scheduler hooks this to dispatch queued work.
	onCapacity func()
}

// New constructs a machine with the model's full budget applied.
func New(e *sim.Engine, name string, cores int, model power.Model) *Machine {
	if err := model.Levels.Validate(); err != nil {
		panic(fmt.Sprintf("server: machine %s: %v", name, err))
	}
	if cores <= 0 {
		panic("server: machine needs at least one core")
	}
	m := &Machine{Name: name, Cores: cores, Model: model, engine: e}
	m.SetBudget(model.MaxDraw())
	return m
}

// OnCapacity registers the capacity callback (at most one; the scheduler).
func (m *Machine) OnCapacity(fn func()) { m.onCapacity = fn }

// Budget returns the current power budget.
func (m *Machine) Budget() units.Watt { return m.budget }

// Level returns the current DVFS level.
func (m *Machine) Level() power.Level { return m.level }

// ActiveCores returns how many cores may run under the current budget.
func (m *Machine) ActiveCores() int { return m.active }

// RunningTasks returns the number of tasks currently progressing.
func (m *Machine) RunningTasks() int {
	n := 0
	for _, t := range m.tasks {
		if t.rate > 0 {
			n++
		}
	}
	return n
}

// AssignedTasks returns the number of tasks holding slots.
func (m *Machine) AssignedTasks() int { return len(m.tasks) }

// FreeSlots returns how many new tasks could start progressing right now.
func (m *Machine) FreeSlots() int {
	free := m.active - len(m.tasks)
	if free < 0 {
		return 0
	}
	return free
}

// Speed returns the current per-core speed factor (0 when powered off).
func (m *Machine) Speed() float64 {
	if m.active == 0 {
		return 0
	}
	return m.level.Speed
}

// Capacity returns the machine's current aggregate compute capacity in
// core-equivalents (active cores × speed).
func (m *Machine) Capacity() float64 { return float64(m.active) * m.level.Speed }

// MaxCapacity returns capacity at full budget.
func (m *Machine) MaxCapacity() float64 { return float64(m.Cores) }

// choose converts a budget into (level, active cores) under the policy.
func (m *Machine) choose(budget units.Watt) (power.Level, int) {
	if m.offline || float64(budget) < float64(m.Model.IdleW) {
		return m.Model.Levels.Bottom(), 0
	}
	dynBudget := float64(budget) - float64(m.Model.IdleW)
	bestLevel, bestActive := m.Model.Levels.Bottom(), 0
	bestScore := -1.0
	for _, l := range m.Model.Levels {
		perCore := float64(m.Model.DynamicW) * l.PowerFrac / float64(m.Cores)
		var active int
		if perCore <= 0 {
			active = m.Cores
		} else {
			active = int(dynBudget / perCore)
		}
		if active > m.Cores {
			active = m.Cores
		}
		if active == 0 {
			continue
		}
		var score float64
		switch m.Policy {
		case MaxSpeed:
			// Prefer the fastest level that can power at least one core;
			// among equal speeds, more cores.
			score = l.Speed*1e6 + float64(active)
		default: // MaxThroughput
			score = float64(active)*l.Speed*1e6 + l.Speed
		}
		if score > bestScore {
			bestScore, bestLevel, bestActive = score, l, active
		}
	}
	return bestLevel, bestActive
}

// SetBudget applies a new power budget, rescaling or suspending running
// tasks as needed.
func (m *Machine) SetBudget(w units.Watt) {
	if w < m.FloorW {
		w = m.FloorW
	}
	if w < 0 {
		w = 0
	}
	level, active := m.choose(w)
	grew := active > m.active || (active == m.active && level.Speed > m.level.Speed)
	m.budget = w
	m.level, m.active = level, active
	if m.Tracer != nil {
		m.traceWindows()
	}
	m.rebalance()
	if grew && m.onCapacity != nil {
		m.onCapacity()
	}
}

// traceWindows opens/closes the machine's derate window span: open while
// the budget holds capacity below the machine's maximum (and the machine is
// up), closed when full capacity returns. Offline windows are traced in
// SetOffline; while offline no derate span runs.
func (m *Machine) traceWindows() {
	now := m.engine.Now()
	derated := !m.offline && m.Capacity() < m.MaxCapacity()
	if derated && m.derSpan == 0 {
		m.derSpan = m.Tracer.BeginSpan(now, "derate", m.TraceTag, 0)
	} else if !derated && m.derSpan != 0 {
		m.Tracer.EndSpanDetail(now, m.derSpan, m.Name)
		m.derSpan = 0
	}
}

// rebalance re-derives every task's progress rate after a state change:
// the oldest `active` tasks run at the level speed, the rest suspend.
// Completion events are re-keyed in place (Engine.Reset) rather than
// cancelled and re-pushed: under an unchanged rate the re-derived time
// moves by at most rounding noise, so the heap fix-up is near-free. A
// task whose event is not scheduled (first start, or resumed after a
// pause) arms the Event it holds, on the completion bound in Start.
func (m *Machine) rebalance() {
	now := m.engine.Now()
	for i, t := range m.tasks {
		// Bank progress at the old rate.
		if t.rate > 0 {
			t.remaining -= (now - t.lastT) * t.rate
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
		t.lastT = now
		newRate := 0.0
		if i < m.active {
			newRate = m.level.Speed
		}
		t.rate = newRate
		if newRate > 0 {
			at := now + t.remaining/newRate
			if t.done.Scheduled() {
				m.engine.Reset(&t.done, at)
			} else {
				m.engine.Arm(&t.done, at, t.fire)
			}
		} else {
			m.engine.Cancel(&t.done)
		}
	}
	m.updateMeter()
}

// Start places the task on a free slot. It returns false when no slot can
// progress right now (the caller queues instead).
func (m *Machine) Start(t *Task) bool {
	if t.machine != nil {
		panic("server: task already assigned")
	}
	if m.FreeSlots() == 0 {
		return false
	}
	t.machine = m
	if t.fire == nil {
		t.fire = t.complete
	}
	t.remaining = t.Work
	t.started = m.engine.Now()
	t.seq = m.nextSq
	m.nextSq++
	m.tasks = append(m.tasks, t)
	m.rebalance()
	return true
}

// finish completes a task: releases its slot and fires OnDone.
func (m *Machine) finish(t *Task) {
	t.remaining = 0
	t.rate = 0
	m.remove(t)
	m.rebalance()
	if t.OnDone != nil {
		t.OnDone(m.engine.Now())
	}
	if m.onCapacity != nil {
		m.onCapacity()
	}
}

// Preempt removes the task from the machine, banking its progress. The
// caller gets the task back with Work set to the remaining core-seconds so
// it can be resubmitted elsewhere (§III-B preemption / offloading).
func (m *Machine) Preempt(t *Task) float64 {
	if t.machine != m {
		panic("server: preempting task not on this machine")
	}
	now := m.engine.Now()
	if t.rate > 0 {
		t.remaining -= (now - t.lastT) * t.rate
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	m.engine.Cancel(&t.done)
	m.remove(t)
	t.Work = t.remaining
	t.rate = 0
	m.rebalance()
	if m.onCapacity != nil {
		m.onCapacity()
	}
	return t.remaining
}

// remove unlinks the task from the machine's slot list.
func (m *Machine) remove(t *Task) {
	for i, u := range m.tasks {
		if u == t {
			m.tasks = append(m.tasks[:i], m.tasks[i+1:]...)
			break
		}
	}
	t.machine = nil
}

// Offline reports whether the machine is failed/out of service.
func (m *Machine) Offline() bool { return m.offline }

// SetOffline fails or restores the machine (§III-C: free cooling
// accelerates processor aging; machines break and get swapped). Going
// offline suspends every assigned task — call Evacuate first to migrate
// them. Coming back online re-applies the stored budget.
func (m *Machine) SetOffline(off bool) {
	if m.offline == off {
		return
	}
	m.offline = off
	if m.Tracer != nil {
		now := m.engine.Now()
		if off {
			m.offSpan = m.Tracer.BeginSpan(now, "offline", m.TraceTag, 0)
		} else if m.offSpan != 0 {
			m.Tracer.EndSpanDetail(now, m.offSpan, m.Name)
			m.offSpan = 0
		}
	}
	m.SetBudget(m.budget)
}

// Evacuate preempts every assigned task and returns them, with Work set to
// their remaining core-seconds, oldest first — the repair/migration path.
func (m *Machine) Evacuate() []*Task {
	out := make([]*Task, 0, len(m.tasks))
	for len(m.tasks) > 0 {
		t := m.tasks[0]
		m.Preempt(t)
		out = append(out, t)
	}
	return out
}

// Victim returns the most recently started task of the given class, or nil.
// Preemption policies evict the youngest DCC task first, losing the least
// banked work.
func (m *Machine) Victim(class int) *Task {
	var best *Task
	for _, t := range m.tasks {
		if t.Class != class {
			continue
		}
		if best == nil || t.seq > best.seq {
			best = t
		}
	}
	return best
}

// Tasks returns the assigned tasks (oldest first). Callers must not mutate.
func (m *Machine) Tasks() []*Task { return m.tasks }

// Draw returns the current electrical draw of the server.
func (m *Machine) Draw() units.Watt {
	if m.active == 0 {
		return 0
	}
	running := m.RunningTasks()
	u := float64(running) / float64(m.Cores)
	return m.Model.Draw(m.level, u)
}

// HeatOutput returns the useful heat currently delivered to the host.
func (m *Machine) HeatOutput() units.Watt {
	return units.Watt(float64(m.Draw()) * m.Model.HeatFraction)
}

// updateMeter folds the new power state into the energy meter.
func (m *Machine) updateMeter() {
	d := m.Draw()
	fac := units.Watt(float64(d) * (1 + m.Model.CoolingOverhead))
	m.meter.Update(m.engine.Now(), d, fac, m.HeatOutput())
}

// Meter returns the machine's energy meter. Call FlushMeter first when
// reading at an arbitrary time.
func (m *Machine) Meter() *power.Meter { return &m.meter }

// FlushMeter integrates energy up to now.
func (m *Machine) FlushMeter() { m.meter.Flush(m.engine.Now()) }
