// Package shard runs many sim.Engines in parallel under conservative
// synchronization — the nation-scale execution layer the single-threaded
// kernel deliberately refuses to be.
//
// The unit of sequential execution is a logical process (LP): one engine,
// one deterministic sub-simulation (a city in a federation). LPs are
// assigned to shards; each shard is a worker goroutine that runs its LPs
// one after another through bounded time windows. Cross-LP interaction
// never touches another LP's state directly: it travels as a (kind,
// payload) message through the sender's ordered outbox, is collected at
// the window barrier, globally sorted by (arrival time, sender, sender
// sequence) and decoded onto the destination engines before the next
// window opens.
//
// Conservative correctness is the classic lookahead argument: every message
// carries a delay of at least the kernel's lookahead L (the minimum
// cross-shard network latency of the model). If every LP has run to the
// barrier time b, a message sent in the window ending at b cannot arrive
// before b + L > b, so delivering at the barrier can never schedule into a
// receiver's past. Windows are adaptive, not a fixed grid: the next barrier
// is min-next-event-time + L, so idle stretches cost one peek instead of a
// crawl of empty windows.
//
// Determinism is the design's non-negotiable: the observable behaviour of
// every LP is a function of its own engine, its own RNG substreams
// (rng.Stream.ForkNamed) and the sorted message stream — none of which
// depend on how LPs are packed onto shards or on goroutine scheduling. A
// run with one shard is therefore byte-identical to a run with N, and both
// to a plain sequential loop over the LPs.
package shard

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"df3/internal/sim"
	"df3/internal/units"
)

// LP is one logical process: an engine plus its horizon and mailbox state.
type LP struct {
	ID   int
	Name string
	// Engine is the LP's private kernel. Nothing outside the LP may
	// schedule on it except the shard kernel's barrier delivery.
	Engine *sim.Engine
	// Until is the LP's own horizon; the kernel never advances it past
	// this, so the LP's clock ends exactly where a serial
	// Engine.Run(Until) would leave it.
	Until sim.Time

	shard int
	// outbox holds messages sent by this LP in the current window. Only
	// the LP's own shard worker appends (inside callbacks), and only the
	// barrier drains, so no lock is needed.
	outbox []Msg
	// seq orders this LP's sends; with the sender ID it makes message
	// order a pure function of simulation content.
	seq uint64
	// fired tracks Engine.Fired at the last barrier, for load stats.
	fired uint64
	done  bool
}

// Shard reports the shard the LP is assigned to.
func (lp *LP) Shard() int { return lp.shard }

// PairTraffic accounts messages and bytes that crossed one (src shard, dst
// shard) boundary — the shard layer's view of cross-shard traffic.
type PairTraffic struct {
	SrcShard, DstShard int
	Messages           int64
	Bytes              float64
	// MinDelay is the smallest message delay observed on this pair — the
	// delay that would bind if the kernel lookahead were raised. A pair
	// whose MinDelay equals the lookahead is the binding constraint on
	// window width (profiler stall attribution); a pair with slack could
	// tolerate a larger lookahead and fewer barriers.
	MinDelay sim.Time
}

// Stats is the kernel's execution accounting after Run.
type Stats struct {
	// Windows is the number of synchronization windows executed.
	Windows int
	// TotalEvents is the sum of events fired across every LP.
	TotalEvents uint64
	// CriticalEvents sums, over windows, the busiest shard's event count:
	// the barrier-synchronous critical path. TotalEvents/CriticalEvents is
	// the speedup an N-way parallel run achieves over the serial kernel
	// once per-event costs dominate — it is a deterministic property of
	// the partition, reported by E19 and realised in wall-clock on a
	// machine with at least N cores.
	CriticalEvents uint64
	// Sent counts cross-LP messages; CrossShard counts the subset whose
	// endpoints lived on different shards (the true boundary traffic).
	Sent, CrossShard int64
}

// Speedup returns TotalEvents/CriticalEvents (1 when nothing ran).
func (s Stats) Speedup() float64 {
	if s.CriticalEvents == 0 {
		return 1
	}
	return float64(s.TotalEvents) / float64(s.CriticalEvents)
}

// Kernel owns the LPs, their shard workers and mailboxes. It is a Part;
// Run drives it through a Sync of its own.
type Kernel struct {
	lookahead sim.Time
	shards    int
	lps       []*LP
	now       sim.Time
	ran       bool
	stats     Stats
	boundary  map[[2]int]*PairTraffic
	// perShard is scratch for per-window event counts.
	perShard []uint64
	// decoder resolves (kind, payload) messages into event closures.
	decoder Decoder
	// owned, when non-nil, restricts execution to the marked LPs: this
	// kernel is one partition of a multi-node federation, one of several
	// Parts under a Sync rather than driven by Run. Unowned LPs exist (the whole scenario is built
	// everywhere, proving every node runs the same recipe) but never
	// advance; their traffic arrives through Deliver.
	owned []bool
	// prof, when non-nil, accumulates busy/idle wall time and barrier
	// stall attribution (profile.go). Nil on unprofiled runs: the hot path
	// pays one pointer test per window, no clock reads.
	prof *kernelProfile
	// loop is the Sync over this kernel alone that Run drives, created on
	// the first Run and kept so later calls continue its barrier sequence.
	loop *Sync
}

// NewKernel returns a kernel with the given worker count and lookahead.
// lookahead is the minimum cross-LP message delay (derive it from the
// minimum cross-shard network latency of the model). shards < 1 or a
// lookahead that is not positive panics.
func NewKernel(shards int, lookahead sim.Time) *Kernel {
	if shards < 1 {
		panic(fmt.Sprintf("shard: kernel with %d shards", shards))
	}
	if !(lookahead > 0) {
		panic(fmt.Sprintf("shard: non-positive lookahead %v", lookahead))
	}
	return &Kernel{
		lookahead: lookahead,
		shards:    shards,
		boundary:  map[[2]int]*PairTraffic{},
		perShard:  make([]uint64, shards),
	}
}

// Shards returns the worker count.
func (k *Kernel) Shards() int { return k.shards }

// Now returns the kernel's global clock: the end of the last completed
// window (every LP has reached at least this time, clamped to its own
// horizon). With Engine.NextEventTime-shaped Run semantics it makes the
// kernel a sim.Target, so drivers can pace a whole federation the same
// way they pace one engine.
func (k *Kernel) Now() sim.Time { return k.now }

// Lookahead returns the kernel's lookahead: the minimum delay of any
// cross-LP message, and the width every window adds to the next event.
func (k *Kernel) Lookahead() sim.Time { return k.lookahead }

// AddLP registers an engine as a logical process running to its own horizon
// `until`, assigned round-robin pending Partition. Engines must join at
// time zero: an LP that already ran could have consumed state the mailbox
// ordering cannot reproduce.
func (k *Kernel) AddLP(name string, e *sim.Engine, until sim.Time) *LP {
	if k.ran {
		panic("shard: AddLP after Run")
	}
	if k.owned != nil {
		panic("shard: AddLP after Own")
	}
	if e.Now() != 0 {
		panic(fmt.Sprintf("shard: LP %q joins at t=%v, want 0", name, e.Now()))
	}
	lp := &LP{ID: len(k.lps), Name: name, Engine: e, Until: until}
	lp.shard = lp.ID % k.shards
	k.lps = append(k.lps, lp)
	return lp
}

// LPs returns the registered logical processes in ID order.
func (k *Kernel) LPs() []*LP { return k.lps }

// Partition reassigns LPs to shards. assign[i] is LP i's shard; values out
// of range or a wrong length panic. Call before Run.
func (k *Kernel) Partition(assign []int) {
	if k.ran {
		panic("shard: Partition after Run")
	}
	if len(assign) != len(k.lps) {
		panic(fmt.Sprintf("shard: partition of %d LPs got %d assignments", len(k.lps), len(assign)))
	}
	for i, s := range assign {
		if s < 0 || s >= k.shards {
			panic(fmt.Sprintf("shard: LP %d assigned to shard %d of %d", i, s, k.shards))
		}
		k.lps[i].shard = s
	}
}

// PartitionContiguous balances LPs over shards in contiguous ID blocks —
// the locality-preserving default when callers register LPs in network or
// thermal neighbourhood order. weights are relative LP costs (nil = equal);
// the split greedily cuts at the running-total boundaries.
func PartitionContiguous(n, shards int, weights []float64) []int {
	if shards < 1 {
		panic("shard: PartitionContiguous with no shards")
	}
	total := 0.0
	if weights == nil {
		total = float64(n)
	} else {
		if len(weights) != n {
			panic("shard: weights length mismatch")
		}
		for _, w := range weights {
			total += w
		}
	}
	assign := make([]int, n)
	acc, cut := 0.0, 0
	for i := 0; i < n; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		// Advance the cut when the running total passes the next shard
		// boundary, but never strand a shard without remaining LPs.
		for cut < shards-1 && acc+w/2 > total*float64(cut+1)/float64(shards) {
			cut++
		}
		assign[i] = cut
		acc += w
	}
	return assign
}

// Own restricts execution to the given LPs: this kernel becomes one
// partition of a larger federation, run under a Sync. Unowned LPs keep
// their engines (built, never advanced); messages addressed to them leave
// through RunWindow instead of being delivered locally. Call before any
// window runs.
func (k *Kernel) Own(ids []int) {
	if k.ran {
		panic("shard: Own after Run")
	}
	k.owned = make([]bool, len(k.lps))
	for _, id := range ids {
		if id < 0 || id >= len(k.lps) {
			panic(fmt.Sprintf("shard: Own of LP %d, kernel has %d", id, len(k.lps)))
		}
		k.owned[id] = true
	}
}

// owns reports whether this kernel executes the LP (always true without a
// partition restriction).
func (k *Kernel) owns(lp *LP) bool { return k.owned == nil || k.owned[lp.ID] }

// SetDecoder registers the resolver for (kind, payload) messages — the
// scenario's message codec. Required before any SendMsg traffic is
// delivered; shared verbatim by every node of a federation.
func (k *Kernel) SetDecoder(d Decoder) { k.decoder = d }

// SendMsg queues a (kind, payload) message for dst, arriving `delay`
// seconds after src's current time and carrying `size` accounting bytes
// over the shard boundary. The kernel's Decoder resolves it into the event
// to run on dst's engine at delivery, so the same message can cross a
// process boundary. It must be called from within src's own event
// callbacks (that is the only context the sender's clock is meaningful
// in), and payload must not be modified afterwards. Delays below the
// kernel lookahead panic: they would let a message arrive inside an
// already-running window, which is exactly the causality violation
// conservative synchronization exists to rule out.
func (k *Kernel) SendMsg(src, dst *LP, delay sim.Time, size units.Byte, kind uint32, payload []byte) {
	if delay < k.lookahead {
		panic(fmt.Sprintf("shard: %q→%q delay %v violates lookahead %v",
			src.Name, dst.Name, delay, k.lookahead))
	}
	src.outbox = append(src.outbox, Msg{
		At: src.Engine.Now() + delay, Src: src.ID, Dst: dst.ID, Seq: src.seq,
		Size: float64(size), Delay: delay, Kind: kind, Payload: payload,
	})
	src.seq++
}

// Boundary returns per-(src shard, dst shard) traffic accounting in sorted
// pair order.
func (k *Kernel) Boundary() []PairTraffic {
	keys := make([][2]int, 0, len(k.boundary))
	for p := range k.boundary {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]PairTraffic, len(keys))
	for i, p := range keys {
		out[i] = *k.boundary[p]
	}
	return out
}

// Stats returns execution accounting (valid after Run).
func (k *Kernel) Stats() Stats { return k.stats }

// Run advances every LP to min(until, its own horizon) through conservative
// windows, parallel across shards, barrier-synchronized, mailbox-drained.
// It is Sync over this kernel as the only Part: the Sync is created on the
// first call and kept, so successive calls (a paced driver's slices, a
// replay's advances) continue one barrier sequence and Stats().Windows
// accumulates across them. Any delivery failure — a message into a
// receiver's past, a payload the decoder rejects — is a scenario bug on
// the serial path, and Run panics with it.
func (k *Kernel) Run(until sim.Time) {
	if k.loop == nil {
		s, err := NewSync(k.lookahead, []Part{k})
		if err != nil {
			panic(err)
		}
		k.loop = s
	}
	if err := k.loop.Run(until); err != nil {
		panic(err)
	}
	k.stats.Windows = k.loop.stats.Windows
}

// runWindow advances every live LP to min(end, its horizon), one worker
// goroutine per shard, and folds the per-shard event counts into the
// critical-path statistics.
func (k *Kernel) runWindow(end sim.Time) {
	for i := range k.perShard {
		k.perShard[i] = 0
	}
	runShard := func(s int) {
		// Busy time is measured inside the worker: wall clock spent
		// advancing this shard's LPs. Only shard s writes busy[s], so the
		// workers never contend; the coordinator reads after the barrier.
		var t0 time.Time
		if k.prof != nil {
			t0 = k.prof.now()
		}
		for _, lp := range k.lps {
			if lp.shard != s || lp.done || !k.owns(lp) {
				continue
			}
			h := lp.Until
			if h > end {
				h = end
			}
			if lp.Engine.Now() < h {
				lp.Engine.Run(h)
			}
			if lp.Engine.Now() >= lp.Until {
				lp.done = true
			}
		}
		if k.prof != nil {
			k.prof.busy[s] += k.prof.now().Sub(t0)
		}
	}
	var w0 time.Time
	if k.prof != nil {
		w0 = k.prof.now()
	}
	if k.shards == 1 {
		runShard(0)
	} else {
		var wg sync.WaitGroup
		for s := 0; s < k.shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				runShard(s)
			}(s)
		}
		wg.Wait()
	}
	if k.prof != nil {
		k.prof.wall += k.prof.now().Sub(w0)
	}
	for _, lp := range k.lps {
		d := lp.Engine.Fired() - lp.fired
		lp.fired = lp.Engine.Fired()
		k.perShard[lp.shard] += d
		k.stats.TotalEvents += d
	}
	max := uint64(0)
	for _, n := range k.perShard {
		if n > max {
			max = n
		}
	}
	k.stats.CriticalEvents += max
}

// deliverBatch sorts a message batch into (at, src, seq) order, resolves
// every message through the decoder and schedules it onto its destination
// engine, with boundary-traffic accounting. Delivery happens strictly
// between windows.
func (k *Kernel) deliverBatch(batch []Msg) error {
	if len(batch) == 0 {
		return nil
	}
	SortMsgs(batch)
	for _, m := range batch {
		src, dst := k.lps[m.Src], k.lps[m.Dst]
		if math.IsNaN(m.At) {
			return fmt.Errorf("shard: message %q→%q has a NaN arrival time", src.Name, dst.Name)
		}
		if m.At < dst.Engine.Now() {
			return fmt.Errorf("shard: message %q→%q at %v arrives in receiver past %v (lookahead too large?)",
				src.Name, dst.Name, m.At, dst.Engine.Now())
		}
		k.stats.Sent++
		pair := [2]int{src.shard, dst.shard}
		pt := k.boundary[pair]
		if pt == nil {
			pt = &PairTraffic{SrcShard: pair[0], DstShard: pair[1]}
			k.boundary[pair] = pt
		}
		pt.Messages++
		pt.Bytes += m.Size
		if pt.Messages == 1 || m.Delay < pt.MinDelay {
			pt.MinDelay = m.Delay
		}
		if src.shard != dst.shard {
			k.stats.CrossShard++
		}
		if k.decoder == nil {
			return fmt.Errorf("shard: message kind %d for %q but no decoder registered", m.Kind, dst.Name)
		}
		fn, err := k.decoder(dst, m.Kind, m.Payload)
		if err != nil {
			return fmt.Errorf("shard: decode message kind %d for %q: %w", m.Kind, dst.Name, err)
		}
		dst.Engine.AtTransient(m.At, fn)
		// A delivered message can revive a drained LP.
		if m.At <= dst.Until {
			dst.done = false
		}
	}
	return nil
}

// The Part implementation: a kernel as one partition under a Sync — the
// only one under Kernel.Run, or one of several when restricted by Own.
// The methods run strictly between windows on the coordinator's goroutine
// (or a worker's session loop).

// OwnedLPs returns the IDs of the LPs this kernel executes.
func (k *Kernel) OwnedLPs() ([]int, error) {
	ids := make([]int, 0, len(k.lps))
	for _, lp := range k.lps {
		if k.owns(lp) {
			ids = append(ids, lp.ID)
		}
	}
	return ids, nil
}

// NextEvent returns the earliest pending event across the kernel's live
// owned LPs — its barrier proposal to the coordinator.
func (k *Kernel) NextEvent() (sim.Time, bool, error) {
	best, any := sim.Time(0), false
	for _, lp := range k.lps {
		if t, ok := k.nextOf(lp); ok && (!any || t < best) {
			best, any = t, true
		}
	}
	return best, any, nil
}

// nextOf returns lp's earliest pending event if this kernel still runs
// the LP and the event lies within its horizon.
func (k *Kernel) nextOf(lp *LP) (sim.Time, bool) {
	if lp.done || !k.owns(lp) {
		return 0, false
	}
	t, ok := lp.Engine.NextEventTime()
	return t, ok && t <= lp.Until
}

// RunWindow advances the owned LPs to `end` (parallel across the kernel's
// local shards), delivers partition-internal messages, and returns the
// boundary messages plus the window's execution accounting. Partition-
// internal delivery happens here rather than at the coordinator, but in
// the same (at, src, seq) order the global sort would have given those
// messages — per-engine delivery order, the only order an engine can
// observe, is identical either way.
func (k *Kernel) RunWindow(end sim.Time) (WindowResult, error) {
	if math.IsNaN(end) {
		return WindowResult{}, fmt.Errorf("shard: window end is NaN")
	}
	k.ran = true
	k.runWindow(end)
	res := WindowResult{PerShard: append([]uint64(nil), k.perShard...)}
	sent0, cross0 := k.stats.Sent, k.stats.CrossShard
	var local []Msg
	for _, lp := range k.lps {
		for _, m := range lp.outbox {
			if k.owns(k.lps[m.Dst]) {
				local = append(local, m)
			} else {
				res.Msgs = append(res.Msgs, m)
			}
		}
		lp.outbox = lp.outbox[:0]
	}
	if err := k.deliverBatch(local); err != nil {
		return WindowResult{}, err
	}
	res.Sent = k.stats.Sent - sent0
	res.CrossShard = k.stats.CrossShard - cross0
	if k.now < end {
		k.now = end
	}
	return res, nil
}

// Deliver schedules partition-bound messages (already globally sorted by
// the coordinator; re-sorting locally is a no-op on sorted input) onto
// the owned destination engines. A message naming an LP the kernel does
// not have, a destination it does not own, or an arrival time that is
// NaN or in the destination's past is refused with an error.
func (k *Kernel) Deliver(batch []Msg) error {
	k.ran = true
	for _, m := range batch {
		if m.Src < 0 || m.Src >= len(k.lps) {
			return fmt.Errorf("shard: delivery from LP %d, kernel has %d", m.Src, len(k.lps))
		}
		if m.Dst < 0 || m.Dst >= len(k.lps) {
			return fmt.Errorf("shard: delivery for LP %d, kernel has %d", m.Dst, len(k.lps))
		}
		if !k.owns(k.lps[m.Dst]) {
			return fmt.Errorf("shard: delivery for LP %d, which this partition does not own", m.Dst)
		}
	}
	return k.deliverBatch(batch)
}
