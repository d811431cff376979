package shard

import (
	"sort"
	"time"

	"df3/internal/sim"
)

// kernelProfile accumulates the profiler's raw counters. Wall-clock reads
// are pure observation of host execution — they never feed back into
// simulation state — and happen only when profiling is enabled, so an
// unprofiled run reads no clock at all.
type kernelProfile struct {
	now func() time.Time
	// busy[s] is shard s's cumulative wall time advancing engines; only
	// worker s writes it, the coordinator reads between windows.
	busy []time.Duration
	// wall is cumulative window wall time on the coordinator: the barrier-
	// synchronous span every shard must cross. busy[s] ≤ wall; the gap is
	// shard s's barrier idle.
	wall time.Duration
	// limiter[lp] counts windows whose barrier was set by lp's
	// min-next-event — the LP the whole federation waited for.
	limiter []uint64
	// limitedWindows counts windows that had a limiter (the catch-up
	// window has none).
	limitedWindows uint64
}

// EnableProfile turns on per-window busy/idle accounting and barrier
// stall attribution. Call before Run. Profiling reads the wall clock but
// touches no simulation state: a profiled run is byte-identical to an
// unprofiled one (checksum-asserted in tests).
func (k *Kernel) EnableProfile() {
	if k.ran {
		panic("shard: EnableProfile after Run")
	}
	if k.prof != nil {
		return
	}
	k.prof = &kernelProfile{
		//df3:allow(detrand) profiler wall time measures host execution only; it never enters simulation state
		now:  time.Now,
		busy: make([]time.Duration, k.shards),
	}
}

// countLimiter attributes a window whose barrier this kernel's earliest
// event at t set, when profiling is on: to the first live owned LP
// (lowest ID) whose next event is at t — the LP every other shard waited
// for.
func (k *Kernel) countLimiter(t sim.Time) {
	if k.prof == nil {
		return
	}
	for _, lp := range k.lps {
		if next, ok := k.nextOf(lp); ok && next == t {
			for len(k.prof.limiter) <= lp.ID {
				k.prof.limiter = append(k.prof.limiter, 0)
			}
			k.prof.limiter[lp.ID]++
			k.prof.limitedWindows++
			return
		}
	}
}

// ShardProfile is one shard's execution accounting over a profiled run.
type ShardProfile struct {
	Shard int
	LPs   int
	// Events is the shard's cumulative fired-event count.
	Events uint64
	// Busy is wall time spent advancing this shard's engines; Idle is the
	// remainder of the windows' wall span — time the worker sat at
	// barriers waiting for slower shards or the mailbox flush.
	Busy, Idle time.Duration
	// Utilization is Busy over the total window wall time.
	Utilization float64
}

// LimiterStat attributes barrier placement: how many windows this LP's
// min-next-event defined. A single LP dominating this table is the
// federation's pacing bottleneck — every other shard idles on it.
type LimiterStat struct {
	LP   int
	Name string
	// Shard is the limiter's shard assignment.
	Shard int
	// Windows is how many barriers this LP set; Frac is the share of all
	// limited windows.
	Windows uint64
	Frac    float64
}

// ProfileReport is the profiler's digest after Run.
type ProfileReport struct {
	Windows int
	// LimitedWindows is how many windows had a barrier-setting LP.
	LimitedWindows uint64
	// Wall is the cumulative window wall time (the parallel region).
	Wall      time.Duration
	Lookahead sim.Time
	Shards    []ShardProfile
	// Limiters lists barrier-setting LPs by descending window count.
	Limiters []LimiterStat
	// Pairs is the boundary traffic with observed MinDelay per pair: a
	// pair whose MinDelay sits at Lookahead binds the window width.
	Pairs []PairTraffic
}

// ProfileReport digests the profiled run. ok is false when EnableProfile
// was never called.
func (k *Kernel) ProfileReport() (ProfileReport, bool) {
	if k.prof == nil {
		return ProfileReport{}, false
	}
	r := ProfileReport{
		Windows:        k.stats.Windows,
		LimitedWindows: k.prof.limitedWindows,
		Wall:           k.prof.wall,
		Lookahead:      k.lookahead,
		Pairs:          k.Boundary(),
	}
	r.Shards = make([]ShardProfile, k.shards)
	for s := range r.Shards {
		sp := &r.Shards[s]
		sp.Shard = s
		sp.Busy = k.prof.busy[s]
		if idle := r.Wall - sp.Busy; idle > 0 {
			sp.Idle = idle
		}
		if r.Wall > 0 {
			sp.Utilization = sp.Busy.Seconds() / r.Wall.Seconds()
		}
	}
	for _, lp := range k.lps {
		sp := &r.Shards[lp.shard]
		sp.LPs++
		sp.Events += lp.Engine.Fired()
	}
	for id, n := range k.prof.limiter {
		if n == 0 {
			continue
		}
		ls := LimiterStat{LP: id, Name: k.lps[id].Name, Shard: k.lps[id].shard, Windows: n}
		if k.prof.limitedWindows > 0 {
			ls.Frac = float64(n) / float64(k.prof.limitedWindows)
		}
		r.Limiters = append(r.Limiters, ls)
	}
	sort.Slice(r.Limiters, func(i, j int) bool {
		if r.Limiters[i].Windows != r.Limiters[j].Windows {
			return r.Limiters[i].Windows > r.Limiters[j].Windows
		}
		return r.Limiters[i].LP < r.Limiters[j].LP
	})
	return r, true
}

// BusySeconds returns shard s's cumulative busy wall time in seconds (0
// when profiling is off) — the registry read-through for
// df3_shard_busy_seconds.
func (k *Kernel) BusySeconds(s int) float64 {
	if k.prof == nil || s < 0 || s >= len(k.prof.busy) {
		return 0
	}
	return k.prof.busy[s].Seconds()
}

// IdleSeconds returns shard s's cumulative barrier-idle wall time in
// seconds (0 when profiling is off).
func (k *Kernel) IdleSeconds(s int) float64 {
	if k.prof == nil || s < 0 || s >= len(k.prof.busy) {
		return 0
	}
	idle := k.prof.wall - k.prof.busy[s]
	if idle < 0 {
		return 0
	}
	return idle.Seconds()
}

// Profiled reports whether EnableProfile was called.
func (k *Kernel) Profiled() bool { return k.prof != nil }
