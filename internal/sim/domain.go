package sim

// A TickDomain batches every periodic callback of one period behind a
// single heap event: where N individually re-armed tickers cost N heap
// pushes and pops per period, a domain costs one, so a city's control
// plane is O(1) heap operations per tick instead of O(rooms). Subscribers
// fire in registration order — the same deterministic order N individual
// tickers registered at the same instant would fire in — and the domain
// re-arms from the *scheduled* fire time, never from the clock after
// callbacks, so the grid cannot drift.
//
// A domain owns its event and binds its fire callback once, re-arming the
// event in place (Engine.Arm), and the subscriber slice keeps its backing
// storage across compactions, so steady-state ticking allocates nothing.
type TickDomain struct {
	engine *Engine
	period Time
	next   Time
	ev     Event
	tick   func() // d.fire, bound once
	subs   []*Sub
	nDead  int
	firing bool
	// active is false once the last subscriber stops; Subscribe re-arms a
	// dormant domain on a fresh grid, exactly as a fresh ticker would.
	active bool
}

// domainKey identifies a live domain by period and next fire time; the
// engine re-keys the domain as it advances.
type domainKey struct{ period, next Time }

// Sub is one subscription on a tick domain. Stop it to end the callbacks.
type Sub struct {
	d    *TickDomain
	fn   func(now Time)
	dead bool
}

// Domain returns the tick domain of the given period whose next fire is
// now+period, creating it if needed. Two callers share a domain exactly
// when their first fires would coincide, so grids started mid-run keep the
// phase an individual ticker would have had.
func (e *Engine) Domain(period Time) *TickDomain {
	if period <= 0 {
		panic("sim: tick domain with non-positive period")
	}
	key := domainKey{period, e.now + period}
	if d, ok := e.domains[key]; ok {
		return d
	}
	d := &TickDomain{engine: e, period: period, next: key.next, active: true}
	d.tick = d.fire
	e.Arm(&d.ev, d.next, d.tick)
	if e.domains == nil {
		e.domains = make(map[domainKey]*TickDomain)
	}
	e.domains[key] = d
	return d
}

// Period returns the domain's tick period.
func (d *TickDomain) Period() Time { return d.period }

// Subscribe registers fn to run every period, first at the domain's next
// fire. Subscribing during a fire of the same domain starts the callback
// at the following tick; subscribing to a dormant domain restarts its grid
// at now+period.
func (d *TickDomain) Subscribe(fn func(now Time)) *Sub {
	if !d.active {
		e := d.engine
		d.next = e.now + d.period
		e.domains[domainKey{d.period, d.next}] = d
		e.Arm(&d.ev, d.next, d.tick)
		d.active = true
	}
	s := &Sub{d: d, fn: fn}
	d.subs = append(d.subs, s)
	return s
}

// Stop ends the subscription. Safe to call more than once and from within
// the subscriber's own callback; stopping a later subscriber during a fire
// prevents its callback this tick, exactly as cancelling its pending event
// would have. When the last subscriber stops, the domain cancels its event
// and unregisters.
func (s *Sub) Stop() {
	if s.dead {
		return
	}
	s.dead = true
	d := s.d
	d.nDead++
	if d.nDead == len(d.subs) && !d.firing {
		d.deactivate()
	}
}

// fire runs one domain tick: re-arm first (from the scheduled time, with a
// fresh sequence number, so relative ordering against other periodic work
// matches what re-arming tickers produced), then fire the subscribers that
// existed at tick start, then compact out stopped entries.
func (d *TickDomain) fire() {
	e := d.engine
	now := d.next
	d.next = now + d.period
	delete(e.domains, domainKey{d.period, now})
	e.domains[domainKey{d.period, d.next}] = d
	e.Arm(&d.ev, d.next, d.tick)

	d.firing = true
	n := len(d.subs)
	for i := 0; i < n; i++ {
		if s := d.subs[i]; !s.dead {
			s.fn(now)
		}
	}
	d.firing = false
	if d.nDead > 0 {
		d.compact()
	}
}

// compact removes dead subscribers in place, preserving order and the
// slice's backing storage.
func (d *TickDomain) compact() {
	live := d.subs[:0]
	for _, s := range d.subs {
		if !s.dead {
			live = append(live, s)
		}
	}
	for i := len(live); i < len(d.subs); i++ {
		d.subs[i] = nil
	}
	d.subs = live
	d.nDead = 0
	if len(d.subs) == 0 {
		d.deactivate()
	}
}

// deactivate cancels the domain's event and unregisters it. A later
// Domain() call of the same period starts a fresh grid from its own time,
// just as a fresh ticker would.
func (d *TickDomain) deactivate() {
	e := d.engine
	e.Cancel(&d.ev)
	delete(e.domains, domainKey{d.period, d.next})
	d.subs = d.subs[:0]
	d.nDead = 0
	d.active = false
}
