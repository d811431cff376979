// Package sim implements the discrete-event simulation kernel that every
// df3 substrate runs on.
//
// The kernel is deliberately single-threaded: a scenario is a deterministic
// function of its seed, which makes experiments reproducible and failures
// bisectable. Events are closures ordered by (time, sequence); ties are
// broken by insertion order so that a run never depends on heap internals.
// Parallelism in the benchmark harness happens across independent engine
// instances, never inside one.
//
// Periodic work is batched: all callbacks of one period and phase share a
// single TickDomain and therefore a single heap event per tick, firing in
// registration order, so steady-state ticking costs O(1) heap operations
// per control tick and allocates nothing. One-shot events that are never
// cancelled use the transient scheduling paths (AtTransient,
// AfterTransient), which recycle Event structs through a free list; the
// callback closure, if the caller builds one per event, is the caller's
// allocation. An owner that schedules the same kind of event again and
// again (a task's completion, a request's timer) holds its Event inside
// its own record and schedules it with Arm: the owner keeps a handle that
// Reset and Cancel take, and once the event has fired or been cancelled
// Arm schedules it again, so a re-arm allocates nothing. At and After
// allocate one Event per call, for callers with no record to keep it in.
package sim

import "fmt"

// Time is simulated time in seconds since the start of the scenario.
type Time = float64

// Common durations, in seconds.
const (
	Second Time = 1
	Minute Time = 60
	Hour   Time = 3600
	Day    Time = 24 * Hour
	Week   Time = 7 * Day
	Year   Time = 365 * Day
)

// Month is the average month length used by the seasonal models.
const Month Time = Year / 12

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it, or owned by the caller and scheduled with Arm. The
// zero Event is unscheduled.
type Event struct {
	at  Time
	seq uint64
	fn  func()
	// pos is the heap index + 1 while scheduled, 0 otherwise, so a zero
	// Event embedded in its owner reads as unscheduled.
	pos    int
	halted bool
	// pooled events return to the engine free list after firing. Only
	// events whose handle never escapes (AtTransient/AfterTransient) may
	// be pooled: a recycled handle would make a defensive Cancel hit an
	// unrelated event.
	pooled bool
}

// Time returns the time the event is (or was) scheduled for.
func (e *Event) Time() Time { return e.at }

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.halted }

// Scheduled reports whether the event is waiting to fire.
func (e *Event) Scheduled() bool { return e.pos > 0 }

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). seq is
// unique per scheduled event, so the order is strictly total and the pop
// sequence is independent of internal layout — which is what lets the
// implementation use hole-based sifting with inlined comparisons instead
// of container/heap's interface dispatch without affecting determinism.
type eventHeap []*Event

// before reports whether a fires before b. Never called with a == b, so
// the seq tiebreak is always decisive.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up sifts h[j] toward the root, moving parents down into the hole.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if before(p, ev) {
			break
		}
		h[j] = p
		p.pos = j + 1
		j = i
	}
	h[j] = ev
	ev.pos = j + 1
}

// down sifts h[j] toward the leaves; reports whether it moved.
func (h eventHeap) down(j int) bool {
	ev := h[j]
	j0 := j
	n := len(h)
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		c := h[l]
		if r := l + 1; r < n {
			if cr := h[r]; before(cr, c) {
				l, c = r, cr
			}
		}
		if before(ev, c) {
			break
		}
		h[j] = c
		c.pos = j + 1
		j = l
	}
	h[j] = ev
	ev.pos = j + 1
	return j > j0
}

// fix restores the heap property around index i after its key changed.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	old := *h
	n := len(old) - 1
	min := old[0]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		(*h).down(0)
	}
	min.pos = 0
	return min
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if i != n {
		last := old[n]
		old[i] = last
		old[n] = nil
		*h = old[:n]
		(*h).fix(i)
	} else {
		old[n] = nil
		*h = old[:n]
	}
	ev.pos = 0
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	stopped bool
	fired   uint64
	// free is the pool of fireable Event structs for the transient
	// scheduling paths; domains reuse their single event in place instead.
	free []*Event
	// domains indexes live tick domains by (period, next fire time); the
	// key tracks the domain as it re-arms so a new subscriber shares a
	// domain exactly when its first fire would coincide with the domain's.
	domains map[domainKey]*TickDomain
}

// New returns a fresh engine at time zero with a pre-sized event heap, so
// steady-state scenarios never grow it.
func New() *Engine { return &Engine{events: make(eventHeap, 0, 1024)} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful in tests and
// for progress accounting).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.events) }

// NextEventTime returns the time of the earliest scheduled event, or false
// when the queue is empty. The sharded kernel uses it to bound conservative
// windows: between barriers, no engine can act before its earliest event, so
// the window end can jump straight to min-next-event + lookahead instead of
// crawling a fixed grid through idle stretches.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a model bug and silently clamping it would corrupt causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{}
	e.Arm(ev, t, fn)
	return ev
}

// After schedules fn delay seconds from now. Negative delays panic.
func (e *Engine) After(delay Time, fn func()) *Event {
	return e.At(e.now+delay, fn)
}

// AtTransient schedules fn at absolute time t on a pooled Event. It returns
// no handle — transient events cannot be cancelled — which lets the kernel
// recycle the struct through a free list the moment it fires. High-churn
// schedulers (workload generators, fault renewal processes) that never
// cancel should prefer this over At: steady-state event traffic then
// allocates nothing in the kernel.
func (e *Engine) AtTransient(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.fn, ev.halted = t, fn, false
	} else {
		ev = &Event{at: t, fn: fn}
	}
	ev.pooled = true
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

// AfterTransient schedules fn delay seconds from now on a pooled Event.
// See AtTransient.
func (e *Engine) AfterTransient(delay Time, fn func()) {
	e.AtTransient(e.now+delay, fn)
}

// Arm schedules the caller-owned event ev to run fn at absolute time t,
// with a fresh sequence number, exactly as At would schedule a new one.
// ev must not be scheduled: a zero Event, or one that has fired or been
// cancelled, can be armed; arming one still waiting panics (Reset re-keys
// it instead). The owner keeps ev in its own record, so arming allocates
// nothing, and holds the handle Reset and Cancel take. fn is typically
// bound once by the owner; a closure built per call is the caller's
// allocation.
func (e *Engine) Arm(ev *Event, t Time, fn func()) {
	if ev.pos > 0 {
		panic("sim: Arm of an event still in the schedule")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: arming event at %v before now %v", t, e.now))
	}
	ev.at, ev.fn, ev.halted = t, fn, false
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

// Reset re-keys a scheduled event to fire at time t with a fresh sequence
// number — observably identical to Cancel followed by re-scheduling the
// same callback, but in place: the heap entry is repositioned with a
// local fix-up, which costs almost nothing when t is near the old time. This
// is the cheap path for schedulers that continually re-derive a completion
// time (e.g. task progress under a changing DVFS level). The event must
// still be scheduled; resetting a fired or cancelled event panics.
func (e *Engine) Reset(ev *Event, t Time) {
	if ev == nil || ev.pos == 0 {
		panic("sim: Reset of event not in the schedule")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: resetting event to %v before now %v", t, e.now))
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	e.events.fix(ev.pos - 1)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op, so callers can cancel defensively.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.pos == 0 {
		return
	}
	ev.halted = true
	e.events.remove(ev.pos - 1)
}

// Stop makes Run return after the event currently executing.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty or the next event
// would fire strictly after `until`. The clock is left at min(until, last
// event time); if events remain, they stay queued and a later Run resumes.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		next := e.events[0]
		if next.at > until {
			break
		}
		e.events.popMin()
		e.now = next.at
		e.fired++
		next.fn()
		e.release(next)
	}
	if e.now < until {
		e.now = until
	}
}

// release returns a fired pooled event to the free list. The closure
// reference is dropped so the callback's captures stay collectable.
func (e *Engine) release(ev *Event) {
	if !ev.pooled {
		return
	}
	ev.fn = nil
	ev.pooled = false
	e.free = append(e.free, ev)
}

// Drain runs until the event queue is empty, with a safety cap on the number
// of events to guard against accidental self-perpetuating processes. It
// returns the number of events executed.
func (e *Engine) Drain(maxEvents uint64) uint64 {
	start := e.fired
	for len(e.events) > 0 && !e.stopped {
		if e.fired-start >= maxEvents {
			panic(fmt.Sprintf("sim: Drain exceeded %d events; runaway process?", maxEvents))
		}
		next := e.events[0]
		e.events.popMin()
		e.now = next.at
		e.fired++
		next.fn()
		e.release(next)
	}
	return e.fired - start
}
