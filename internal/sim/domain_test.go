package sim

import (
	"reflect"
	"testing"
)

// refTicker re-arms one event per tick per ticker — the pre-domain kernel
// behavior, kept here as the determinism reference.
type refTicker struct {
	e      *Engine
	period Time
	fn     func(now Time)
}

func startRefTicker(e *Engine, period Time, fn func(now Time)) *refTicker {
	t := &refTicker{e: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *refTicker) arm() {
	t.e.After(t.period, func() {
		t.fn(t.e.Now())
		t.arm()
	})
}

// TestDomainMatchesIndividualTickers is the determinism regression for the
// batched kernel: a TickDomain with K subscribers must fire the same
// callbacks, in the same order, at the same times as K individually
// scheduled tickers — including across two interleaved periods.
func TestDomainMatchesIndividualTickers(t *testing.T) {
	const k = 7
	const horizon = 50 * Hour

	type firing struct {
		id int
		at Time
	}
	run := func(start func(e *Engine, period Time, id int, log *[]firing)) []firing {
		e := New()
		var log []firing
		for i := 0; i < k; i++ {
			start(e, 60, i, &log)
		}
		// A second, coarser period interleaves with the first.
		for i := 0; i < 3; i++ {
			start(e, 3600, k+i, &log)
		}
		e.Run(horizon)
		return log
	}

	ref := run(func(e *Engine, period Time, id int, log *[]firing) {
		startRefTicker(e, period, func(now Time) { *log = append(*log, firing{id, now}) })
	})
	got := run(func(e *Engine, period Time, id int, log *[]firing) {
		e.Domain(period).Subscribe(func(now Time) { *log = append(*log, firing{id, now}) })
	})

	if len(ref) == 0 {
		t.Fatal("reference run produced no firings")
	}
	if !reflect.DeepEqual(ref, got) {
		for i := range ref {
			if i >= len(got) || ref[i] != got[i] {
				t.Fatalf("firing %d diverges: ref %+v, domain %+v (lens %d vs %d)",
					i, ref[i], got[i], len(ref), len(got))
			}
		}
		t.Fatalf("domain fired %d callbacks, reference %d", len(got), len(ref))
	}
}

// TestDomainSteadyStateAllocs guards the low-allocation kernel: once a
// domain is warmed up, ticking allocates nothing — no event churn, no
// subscriber-slice churn.
func TestDomainSteadyStateAllocs(t *testing.T) {
	e := New()
	n := 0
	for i := 0; i < 32; i++ {
		e.Domain(60).Subscribe(func(Time) { n++ })
	}
	e.Run(10 * Hour) // warm up heap, free list and domain registry
	allocs := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + Hour)
	})
	if allocs != 0 {
		t.Errorf("steady-state ticking allocates %v per hour of ticks, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("subscribers never fired")
	}
}

// TestTransientSteadyStateAllocs: self-rescheduling transient chains reuse
// pooled events, so the kernel itself adds no allocations (the closure is
// the caller's).
func TestTransientSteadyStateAllocs(t *testing.T) {
	e := New()
	n := 0
	var loop func()
	loop = func() { n++; e.AfterTransient(60, loop) }
	e.AfterTransient(60, loop)
	e.Run(10 * Hour)
	allocs := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + Hour)
	})
	if allocs != 0 {
		t.Errorf("transient chain allocates %v per hour of events, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("chain never fired")
	}
}

func TestDomainSharedByPhase(t *testing.T) {
	e := New()
	d1 := e.Domain(60)
	d2 := e.Domain(60)
	if d1 != d2 {
		t.Error("same-period domains created at the same instant must be shared")
	}
	if e.Domain(30) == d1 {
		t.Error("different periods must not share a domain")
	}
	// A domain requested mid-grid gets its own phase.
	d1.Subscribe(func(Time) {})
	e.Run(90) // now 90: next fire of d1 is 120, a fresh domain would fire at 150
	if e.Domain(60) == d1 {
		t.Error("mid-grid domain request must not join an off-phase grid")
	}
	// Requested exactly on the grid, the domain is shared again.
	e.Run(120)
	if e.Domain(60) != d1 {
		t.Error("on-grid domain request must rejoin the running grid")
	}
}

func TestDomainSubscribeDuringFire(t *testing.T) {
	e := New()
	d := e.Domain(10)
	var got []Time
	d.Subscribe(func(now Time) {
		if now == 10 {
			d.Subscribe(func(now Time) { got = append(got, now) })
		}
	})
	e.Run(35)
	// The nested subscriber must first fire one period after registration,
	// not during the tick that registered it.
	want := []Time{20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nested subscriber fired at %v, want %v", got, want)
	}
}

func TestDomainStopDuringFire(t *testing.T) {
	e := New()
	d := e.Domain(10)
	var subs [3]*Sub
	var fired []int
	for i := range subs {
		i := i
		subs[i] = d.Subscribe(func(Time) {
			fired = append(fired, i)
			if i == 0 && e.Now() == 10 {
				subs[2].Stop() // stop a later subscriber mid-tick
			}
		})
	}
	e.Run(25)
	// Tick 10: sub0 fires and stops sub2, sub1 fires, sub2 skipped.
	// Tick 20: sub0, sub1.
	want := []int{0, 1, 0, 1}
	if !reflect.DeepEqual(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
}

func TestDomainDeactivatesWhenEmpty(t *testing.T) {
	e := New()
	s1 := e.Domain(10).Subscribe(func(Time) {})
	s2 := e.Domain(10).Subscribe(func(Time) {})
	e.Run(25)
	s1.Stop()
	s2.Stop()
	s2.Stop() // double stop is safe
	e.Run(100)
	if e.Pending() != 0 {
		t.Errorf("empty domain left %d events pending", e.Pending())
	}
	// A dormant domain revives on a fresh grid.
	var got []Time
	e.Domain(10).Subscribe(func(now Time) { got = append(got, now) })
	e.Run(125)
	want := []Time{110, 120}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("revived domain fired at %v, want %v", got, want)
	}
}

// TestTickerNoPhaseDrift: tickers re-arm from the scheduled fire time, so
// a fractional period stays on the k*period grid instead of accumulating
// clock error tick over tick.
func TestTickerNoPhaseDrift(t *testing.T) {
	e := New()
	period := Time(0.1)
	var last Time
	ticks := 0
	e.Domain(period).Subscribe(func(now Time) { last = now; ticks++ })
	e.Run(1000)
	// Compare against the same accumulation the domain performs: the grid
	// is defined by repeated addition from the start, never by Now() after
	// a callback.
	want := Time(0)
	for i := 0; i < ticks; i++ {
		want += period
	}
	if last != want {
		t.Errorf("tick %d fired at %v, want grid time %v", ticks, last, want)
	}
	if ticks < 9990 {
		t.Errorf("only %d ticks in 1000 s at period 0.1", ticks)
	}
}
