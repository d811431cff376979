package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"df3/internal/rng"
)

func TestEventsFireInOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run(10)
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTieBreakByInsertionOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { got = append(got, i) })
	}
	e.Run(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	e := New()
	fired := false
	e.At(5, func() { fired = true })
	e.Run(4)
	if fired {
		t.Error("event at t=5 fired during Run(4)")
	}
	if e.Now() != 4 {
		t.Errorf("clock = %v, want 4", e.Now())
	}
	e.Run(10)
	if !fired {
		t.Error("event did not fire on resumed run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run(10)
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(5, func() { fired = true })
	e.Cancel(ev)
	e.Run(10)
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("event does not report cancellation")
	}
	// Double-cancel and cancelling nil must be safe.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i), func() { got = append(got, i) })
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Run(20)
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Errorf("cancelled event %d fired", v)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	var got []Time
	e.At(1, func() {
		e.After(1, func() { got = append(got, e.Now()) })
		e.After(3, func() { got = append(got, e.Now()) })
	})
	e.Run(10)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("chained events fired at %v, want [2 4]", got)
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(100)
	if count != 3 {
		t.Errorf("Stop did not halt the loop: %d events fired", count)
	}
	// Resume finishes the rest.
	e.Run(100)
	if count != 10 {
		t.Errorf("resume after Stop fired %d total, want 10", count)
	}
}

func TestDrainCapPanics(t *testing.T) {
	e := New()
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("Drain did not panic on runaway process")
		}
	}()
	e.Drain(100)
}

func TestAfterNegativePanics(t *testing.T) {
	e := New()
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Error("After with negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

// Property: for any set of (time, id) pairs, events fire sorted by time with
// ties broken by insertion order — the causality contract everything else
// in the simulator relies on.
func TestOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, r := range raw {
			at := Time(r % 1000)
			i := i
			e.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run(1e6)
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random interleavings of schedule/cancel never lose or duplicate
// a non-cancelled event.
func TestCancelConservationProperty(t *testing.T) {
	s := rng.New(99)
	f := func(n uint8) bool {
		e := New()
		total := int(n%64) + 1
		firedCount := 0
		evs := make([]*Event, total)
		for i := 0; i < total; i++ {
			evs[i] = e.At(Time(s.Intn(50)), func() { firedCount++ })
		}
		cancelled := 0
		for i := 0; i < total; i++ {
			if s.Bool(0.3) {
				e.Cancel(evs[i])
				cancelled++
			}
		}
		e.Run(100)
		return firedCount == total-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := New()
	var times []Time
	e.Domain(10).Subscribe(func(now Time) { times = append(times, now) })
	e.Run(55)
	want := []Time{10, 20, 30, 40, 50}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := New()
	count := 0
	var tk *Sub
	tk = e.Domain(1).Subscribe(func(now Time) {
		count++
		if count == 5 {
			tk.Stop()
		}
	})
	e.Run(100)
	if count != 5 {
		t.Errorf("stopped ticker fired %d times, want 5", count)
	}
	tk.Stop() // double stop is safe
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-period ticker did not panic")
		}
	}()
	New().Domain(0)
}

func TestCalendarMonths(t *testing.T) {
	c := JanuaryStart
	if m := c.MonthOfYear(0); m != 1 {
		t.Errorf("January start month = %d", m)
	}
	if m := c.MonthOfYear(6 * Month); m != 7 {
		t.Errorf("month after 6 avg months = %d, want 7", m)
	}
	n := NovemberStart
	if m := n.MonthOfYear(0); m != 11 {
		t.Errorf("November start month = %d", m)
	}
	// Two months after Nov 1 wraps into January.
	if m := n.MonthOfYear(61 * Day); m != 1 {
		t.Errorf("Nov+61d month = %d, want 1", m)
	}
}

func TestCalendarHourOfDay(t *testing.T) {
	c := JanuaryStart
	if h := c.HourOfDay(0); h != 0 {
		t.Errorf("hour at t=0 is %v", h)
	}
	if h := c.HourOfDay(6 * Hour); h != 6 {
		t.Errorf("hour at 6h is %v", h)
	}
	if h := c.HourOfDay(Day + 13*Hour); h < 13-1e-9 || h > 13+1e-9 {
		t.Errorf("hour at day+13h is %v", h)
	}
}

func TestCalendarWeekend(t *testing.T) {
	c := JanuaryStart // time zero is a Monday
	if c.IsWeekend(0) {
		t.Error("Monday flagged as weekend")
	}
	if !c.IsWeekend(5 * Day) {
		t.Error("Saturday not flagged as weekend")
	}
	if !c.IsWeekend(6 * Day) {
		t.Error("Sunday not flagged as weekend")
	}
	if c.IsWeekend(7 * Day) {
		t.Error("next Monday flagged as weekend")
	}
}

// Property: DayOfYear always lands in [0,365) and advances by exactly the
// elapsed days modulo the year.
func TestCalendarDayProperty(t *testing.T) {
	f := func(start uint16, dt uint32) bool {
		c := Calendar{StartDayOfYear: float64(start % 365)}
		d := c.DayOfYear(Time(dt%100000) * Hour)
		return d >= 0 && d < 365
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
