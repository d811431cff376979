package sim

import "testing"

// TestArmRearmsAfterFireAndCancel: an owner-held event reads as
// unscheduled when zero, after it fires and after a Cancel, and Arm
// schedules it again each time.
func TestArmRearmsAfterFireAndCancel(t *testing.T) {
	e := New()
	var ev Event
	if ev.Scheduled() {
		t.Fatal("a zero Event reads as scheduled")
	}
	var fired []Time
	fn := func() { fired = append(fired, e.Now()) }
	e.Arm(&ev, 1, fn)
	if !ev.Scheduled() || ev.Time() != 1 {
		t.Fatalf("armed event: scheduled=%v at %v, want true at 1", ev.Scheduled(), ev.Time())
	}
	e.Run(2)
	if ev.Scheduled() || len(fired) != 1 {
		t.Fatalf("after its fire: scheduled=%v, fired %v", ev.Scheduled(), fired)
	}
	e.Arm(&ev, 3, fn)
	e.Cancel(&ev)
	if ev.Scheduled() || !ev.Cancelled() {
		t.Fatalf("after Cancel: scheduled=%v cancelled=%v", ev.Scheduled(), ev.Cancelled())
	}
	e.Arm(&ev, 4, fn)
	if ev.Cancelled() {
		t.Fatal("a re-armed event still reads as cancelled")
	}
	e.Run(10)
	if len(fired) != 2 || fired[1] != 4 {
		t.Fatalf("fired at %v, want [1 4]", fired)
	}
}

// TestCancelAfterFireIsNoop: cancelling an owner-held event that already
// fired leaves every other scheduled event alone.
func TestCancelAfterFireIsNoop(t *testing.T) {
	e := New()
	var ev Event
	e.Arm(&ev, 1, func() {})
	e.Run(1)
	other := false
	e.At(2, func() { other = true })
	e.Cancel(&ev)
	if e.Pending() != 1 {
		t.Fatalf("Cancel after the fire changed the schedule: %d pending, want 1", e.Pending())
	}
	e.Run(3)
	if !other || ev.Cancelled() {
		t.Fatalf("other fired=%v, fired event reads cancelled=%v", other, ev.Cancelled())
	}
}

// TestResetArmedEvent: Reset re-keys an armed event in place, and a
// re-keyed event fires once, at its new time.
func TestResetArmedEvent(t *testing.T) {
	e := New()
	var ev Event
	var at []Time
	e.Arm(&ev, 5, func() { at = append(at, e.Now()) })
	e.At(3, func() {})
	e.Reset(&ev, 2)
	e.Run(10)
	if len(at) != 1 || at[0] != 2 {
		t.Fatalf("fired at %v, want [2]", at)
	}
}

// TestArmScheduledPanics: arming an event still waiting to fire would
// put it in the heap twice, so it panics.
func TestArmScheduledPanics(t *testing.T) {
	e := New()
	var ev Event
	e.Arm(&ev, 1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Arm of a scheduled event did not panic")
		}
	}()
	e.Arm(&ev, 2, func() {})
}

// TestArmMatchesAtDigest: the same schedule built through At and through
// Arm, with cancels and resets, leaves engines with the same
// kernel-visible state, heap digest included, after every step.
func TestArmMatchesAtDigest(t *testing.T) {
	at, arm := New(), New()
	const n = 8
	var atEvs [n]*Event
	var armEvs [n]Event
	nop := func() {}
	step := func(name string, viaAt func(), viaArm func()) {
		t.Helper()
		viaAt()
		viaArm()
		if a, b := at.Snapshot(), arm.Snapshot(); a != b {
			t.Fatalf("%s: At engine %+v, Arm engine %+v", name, a, b)
		}
	}
	for i := 0; i < n; i++ {
		ti := Time(i%3) + 1
		step("schedule", func() { atEvs[i] = at.At(ti, nop) }, func() { arm.Arm(&armEvs[i], ti, nop) })
	}
	step("cancel", func() { at.Cancel(atEvs[2]) }, func() { arm.Cancel(&armEvs[2]) })
	step("reset", func() { at.Reset(atEvs[5], 0.5) }, func() { arm.Reset(&armEvs[5], 0.5) })
	step("run", func() { at.Run(1.5) }, func() { arm.Run(1.5) })
	// Re-schedule a fired and a cancelled event: At makes new ones, Arm
	// re-arms the owner's.
	step("re-arm", func() {
		atEvs[0] = at.At(4, nop)
		atEvs[2] = at.At(2, nop)
	}, func() {
		arm.Arm(&armEvs[0], 4, nop)
		arm.Arm(&armEvs[2], 2, nop)
	})
	step("drain", func() { at.Run(10) }, func() { arm.Run(10) })
}

// TestArmSteadyStateAllocs: re-arming an owner-held event with a callback
// bound once allocates nothing.
func TestArmSteadyStateAllocs(t *testing.T) {
	e := New()
	var ev Event
	fn := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		e.Arm(&ev, e.Now()+1, fn)
		e.Run(e.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("a re-arm allocates %v objects, want 0", allocs)
	}
}
