package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the clock boundary. A Target is anything that can advance
// simulated time — a bare Engine, a shard kernel, a whole federation. Batch
// runs call its Run directly: simulated time advances as fast as events
// can execute, and the wall clock is invisible. Paced instead advances it
// in bounded slices against the wall clock, draining an InjectQueue of
// external events between slices — the serving mode, where real clients
// submit requests to a live simulation and wait for real outcomes.
//
// A paced session stays replayable: every injection applies at a known
// (sim time, seq) instant and every slice boundary is observable through
// OnAdvance, so a recorded arrival log run back in batch reproduces the
// session byte for byte. The simulation itself never reads the wall
// clock — pacing lives entirely in this layer.

// Target is a drivable simulation: a clock plus a run loop that executes
// all events up to a horizon and leaves the clock there.
type Target interface {
	// Now returns the target's current simulated time.
	Now() Time
	// Run executes events in order until the queue is empty or the next
	// event would fire strictly after until, leaving the clock at
	// min(until, last event time) — Engine.Run semantics.
	Run(until Time)
}

// Clock abstracts the wall clock so the paced loop is testable with a
// virtual clock. The simulation proper must never see this interface —
// only drivers hold one.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// WallClock is the real host clock.
type WallClock struct{}

// Now reads the host clock.
func (WallClock) Now() time.Time {
	return time.Now() //df3:allow(detrand) the paced driver is the one sanctioned wall-clock boundary; sim state never reads it
}

// Sleep blocks the driving goroutine.
func (WallClock) Sleep(d time.Duration) { time.Sleep(d) }

// Paced drives a Target in real time (or a scaled multiple of it): wall
// time w since Drive started maps to simulated time start + w·Speed. Each
// loop iteration drains the injection queue — applying external events at
// the target's current simulated time — then runs one bounded slice. When
// the simulation is ahead of the wall clock the loop sleeps; when behind
// (after a scheduling hiccup) it runs slices back to back until caught up.
//
// Drive holds an internal mutex across each drain+run slice; Sync runs a
// closure under the same mutex, which is how metric scrapes and snapshot
// reads observe a live simulation without racing it.
type Paced struct {
	// Speed is simulated seconds per wall second (default 1: real time).
	Speed float64
	// MaxSlice bounds how much simulated time one slice may cover, so a
	// stalled host clock cannot make the simulation leap (default 1 s).
	MaxSlice Time
	// Tick is the wall-clock poll interval while waiting for the wall to
	// catch up (default 2 ms). It bounds injection latency.
	Tick time.Duration
	// Queue is the external event source (nil: no injections).
	Queue *InjectQueue
	// OnAdvance, when set, observes every slice boundary after the target
	// reached it — the hook arrival-log recorders use to make a paced
	// session replayable in batch.
	OnAdvance func(reached Time)
	// Clock defaults to WallClock.
	Clock Clock

	mu      sync.Mutex
	stopped atomic.Bool

	// Health telemetry, updated every loop iteration and read by metric
	// scrapes. These are atomics, not mu-guarded state, deliberately: a
	// scrape-time GaugeFunc already runs inside Sync (the registry
	// evaluates read-throughs under its own lock while the driver mutex is
	// held), so a gauge that called Sync again would self-deadlock.
	// Lock-free reads keep driver health observable from any goroutine —
	// including mid-slice, when the driver is busy.
	lagMicros    atomic.Int64 // wall-target minus sim clock, µs of sim time
	slices       atomic.Uint64
	lastSliceSim atomic.Int64 // last reached boundary, µs of sim time
}

// LagSeconds reports how far the simulation currently trails the pacing
// target: target sim time implied by the wall clock minus the target's
// actual clock, in simulated seconds. Near zero when healthy; growing
// when slices can't keep up with real time (host overload, GC stalls).
// Negative values mean the clamp (MaxSlice/horizon) has the sim ahead.
func (p *Paced) LagSeconds() float64 {
	return float64(p.lagMicros.Load()) / 1e6
}

// Slices reports how many slices Drive has executed.
func (p *Paced) Slices() uint64 { return p.slices.Load() }

// LastSliceReached reports the simulated time of the most recent slice
// boundary (0 before the first).
func (p *Paced) LastSliceReached() Time {
	return Time(p.lastSliceSim.Load()) / 1e6
}

// Stop makes Drive return after the slice currently executing. Safe from
// any goroutine.
func (p *Paced) Stop() { p.stopped.Store(true) }

// Drive paces t to until, returning when the horizon is reached or Stop
// is called. Injections pending at return stay queued.
func (p *Paced) Drive(t Target, until Time) {
	speed := p.Speed
	if speed <= 0 {
		speed = 1
	}
	slice := p.MaxSlice
	if slice <= 0 {
		slice = Second
	}
	tick := p.Tick
	if tick <= 0 {
		tick = 2 * time.Millisecond
	}
	clk := p.Clock
	if clk == nil {
		clk = WallClock{}
	}
	// One tick's worth of simulated time is the finest slice worth taking:
	// advancing in smaller grains would spin the loop hot against the wall
	// clock and flood OnAdvance (and any arrival log behind it) with
	// micro-slices. The horizon is the one exception — the final sliver
	// must run however small, or Drive could never terminate.
	minSlice := Time(tick.Seconds()) * Time(speed)
	if minSlice > slice {
		minSlice = slice
	}
	p.stopped.Store(false)
	wall0 := clk.Now()
	sim0 := t.Now()
	for !p.stopped.Load() {
		p.mu.Lock()
		if p.Queue != nil {
			for _, inj := range p.Queue.Drain() {
				inj.Fn(inj.Seq)
			}
		}
		target := sim0 + Time(clk.Now().Sub(wall0).Seconds())*speed
		if target > until {
			target = until
		}
		wallTarget := target
		if lim := t.Now() + slice; target > lim {
			target = lim
		}
		advanced := false
		if pending := target - t.Now(); pending > 0 && (pending >= minSlice || target == until) {
			t.Run(target)
			if p.OnAdvance != nil {
				p.OnAdvance(target)
			}
			p.slices.Add(1)
			p.lastSliceSim.Store(int64(target * 1e6))
			advanced = true
		}
		// Lag is measured after the slice: how much simulated time the
		// wall-clock target is still owed. Persistently positive lag means
		// the host cannot keep up at this Speed.
		p.lagMicros.Store(int64((wallTarget - t.Now()) * 1e6))
		done := t.Now() >= until
		p.mu.Unlock()
		if done {
			return
		}
		if !advanced {
			// Caught up with the wall clock; wait for it.
			clk.Sleep(tick)
		}
	}
}

// Sync runs fn mutually excluded with the drive loop's slices, so fn sees
// the simulation quiescent at a slice boundary. Calling it when no Drive
// is running is also safe — the mutex is simply uncontended.
func (p *Paced) Sync(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn()
}
