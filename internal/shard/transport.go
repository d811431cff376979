// Transport abstraction under the kernel's mailbox layer.
//
// Sync is the module's one conservative-window loop, run over Parts. A
// Part is the window-protocol view of one partition of the LPs: report
// the earliest pending event, run a bounded window, hand over the
// messages that left the partition, accept the sorted messages that
// enter it. *Kernel implements Part — Own restricts execution to the
// local partition — and Kernel.Run is Sync over the kernel as its only
// Part; internal/wire implements Part over a socket. A serial run, N
// in-process partitions and N nodes therefore share one barrier
// sequence and one (at, src, seq) ordering, which is what keeps an
// N-node run byte-identical to serial.
//
// Closures cannot cross a process boundary, so every cross-LP message is
// data: a kind tag plus an opaque payload, resolved into an event closure
// on the destination side by the Decoder the scenario registers
// (city.Federation registers its inter-city job codec). Messages that stay
// inside a partition take the same decode path as those that leave it, so
// a local delivery cannot behave differently from a remote one.
package shard

import (
	"fmt"
	"sort"
	"sync"

	"df3/internal/sim"
)

// Msg is one serialisable cross-partition message: the mailbox entry as
// it travels between Parts (and over the wire). At/Src/Seq carry the
// kernel's deterministic delivery order; Kind/Payload carry the content,
// resolved by the destination kernel's Decoder.
type Msg struct {
	At       sim.Time
	Src, Dst int
	Seq      uint64
	Size     float64
	Delay    sim.Time
	Kind     uint32
	Payload  []byte
}

// Decoder resolves a (kind, payload) message into the closure to run on
// the destination LP's engine. Scenarios register one with SetDecoder;
// it must be a pure function of its arguments so decoding on a remote
// node reproduces exactly what a local closure would have done.
type Decoder func(dst *LP, kind uint32, payload []byte) (func(), error)

// WindowResult is what one Part reports after running a window.
type WindowResult struct {
	// Msgs are the messages that left the partition this window (their
	// Dst is not owned by the reporting Part), in outbox order; the
	// coordinator merges and sorts them globally.
	Msgs []Msg
	// PerShard is the events fired by each of the Part's local shard
	// workers during the window — the coordinator folds these into the
	// global critical path.
	PerShard []uint64
	// Sent and CrossShard count messages the Part delivered internally
	// this window (both endpoints local) and the subset that crossed a
	// local shard boundary.
	Sent, CrossShard int64
}

// Part is one partition of a federation under the window protocol. All
// methods are called from the coordinator loop, strictly between
// windows; implementations need no internal synchronization beyond what
// their own window execution requires.
type Part interface {
	// OwnedLPs returns the IDs of the LPs this Part executes.
	OwnedLPs() ([]int, error)
	// NextEvent returns the earliest pending event time across the
	// partition's live LPs (false when it has no work left).
	NextEvent() (sim.Time, bool, error)
	// RunWindow advances every local LP to min(end, its horizon),
	// delivers partition-internal messages, and returns the rest.
	RunWindow(end sim.Time) (WindowResult, error)
	// Deliver schedules partition-bound messages, already in global
	// (At, Src, Seq) order, onto the local engines.
	Deliver(batch []Msg) error
}

// SortMsgs puts a message batch into the kernel's deterministic delivery
// order: (arrival time, sender LP, sender sequence).
func SortMsgs(batch []Msg) {
	sort.Slice(batch, func(i, j int) bool { return batch[i].before(&batch[j]) })
}

// before is the delivery order SortMsgs and every kernel mailbox share.
func (a *Msg) before(b *Msg) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// Sync is the conservative-window coordinator over Parts. Kernel.Run is
// Sync over one unrestricted kernel; df3coord runs it over N restricted
// kernels in process or N wire.Clients across processes. Stats merge the
// parts' accounting: the critical path is the per-window busiest shard
// across every partition. When the part that set a barrier is a profiled
// *Kernel, Sync has it attribute the window to its limiter LP.
type Sync struct {
	lookahead sim.Time
	parts     []Part
	owner     map[int]int // LP ID → index into parts
	now       sim.Time
	stats     Stats
	boundary  int64
}

// NewSync wires the coordinator over its partitions, querying each for
// the LPs it owns. Ownership must be disjoint; the union must cover
// every Dst that messages will name.
func NewSync(lookahead sim.Time, parts []Part) (*Sync, error) {
	if !(lookahead > 0) {
		return nil, fmt.Errorf("shard: non-positive lookahead %v", lookahead)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: sync over zero partitions")
	}
	s := &Sync{lookahead: lookahead, parts: parts, owner: map[int]int{}}
	for pi, p := range parts {
		ids, err := p.OwnedLPs()
		if err != nil {
			return nil, fmt.Errorf("shard: partition %d: %w", pi, err)
		}
		for _, id := range ids {
			if prev, dup := s.owner[id]; dup {
				return nil, fmt.Errorf("shard: LP %d owned by partitions %d and %d", id, prev, pi)
			}
			s.owner[id] = pi
		}
	}
	return s, nil
}

// Now returns the end of the last completed window.
func (s *Sync) Now() sim.Time { return s.now }

// Stats returns the merged execution accounting (valid after Run).
func (s *Sync) Stats() Stats { return s.stats }

// Boundary returns how many messages crossed a partition boundary — the
// traffic that goes over the wire in a multi-node run.
func (s *Sync) Boundary() int64 { return s.boundary }

// Run advances every partition to `until` through conservative windows,
// then runs a catch-up window to `until`: events sitting exactly at the
// horizon (outside any barrier, since windows end strictly after the
// events that define them) still fire, their sends are delivered, and
// every LP's clock is left at min(until, its horizon) — exactly as a
// serial Engine.Run(until) per LP would leave it. The catch-up window is
// not counted in Stats().Windows.
func (s *Sync) Run(until sim.Time) error {
	for {
		end, any, err := s.nextBarrier(until)
		if err != nil {
			return err
		}
		if !any {
			break
		}
		if err := s.window(end); err != nil {
			return err
		}
		s.now = end
		s.stats.Windows++
		if end >= until {
			break
		}
	}
	if err := s.window(until); err != nil {
		return err
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// nextBarrier gathers every partition's earliest event (concurrently —
// remote partitions answer over the network) and picks the next window
// end: the earliest event plus the lookahead, clamped to `until`. It
// reports false when no partition has work before `until`. The limiter is
// the lowest-index part holding the earliest event.
func (s *Sync) nextBarrier(until sim.Time) (sim.Time, bool, error) {
	if s.now >= until {
		return 0, false, nil
	}
	type proposal struct {
		t   sim.Time
		has bool
		err error
	}
	props := make([]proposal, len(s.parts))
	s.each(func(i int, p Part) {
		t, has, err := p.NextEvent()
		props[i] = proposal{t: t, has: has, err: err}
	})
	next := until
	limiter := -1
	for i, pr := range props {
		if pr.err != nil {
			return 0, false, fmt.Errorf("shard: partition %d: %w", i, pr.err)
		}
		if pr.has && pr.t < next {
			next, limiter = pr.t, i
		}
	}
	if limiter < 0 {
		return 0, false, nil
	}
	if k, ok := s.parts[limiter].(*Kernel); ok {
		k.countLimiter(next)
	}
	end := next + s.lookahead
	if end > until {
		end = until
	}
	// Guard against a zero-width window when an event sits exactly at the
	// previous barrier with lookahead already consumed by clamping.
	if end <= s.now {
		end = s.now + s.lookahead
		if end > until {
			end = until
		}
	}
	return end, true, nil
}

// window runs one window on every partition, merges the boundary
// messages into global order and routes them to their destinations.
func (s *Sync) window(end sim.Time) error {
	results := make([]WindowResult, len(s.parts))
	errs := make([]error, len(s.parts))
	s.each(func(i int, p Part) {
		results[i], errs[i] = p.RunWindow(end)
	})
	var batch []Msg
	max := uint64(0)
	for i, res := range results {
		if errs[i] != nil {
			return fmt.Errorf("shard: partition %d: %w", i, errs[i])
		}
		for _, n := range res.PerShard {
			s.stats.TotalEvents += n
			if n > max {
				max = n
			}
		}
		s.stats.Sent += res.Sent
		s.stats.CrossShard += res.CrossShard
		batch = append(batch, res.Msgs...)
	}
	s.stats.CriticalEvents += max
	if len(batch) == 0 {
		return nil
	}
	// Boundary messages crossed a partition, and partitions never share
	// a shard worker, so every one of them is cross-shard traffic.
	s.stats.Sent += int64(len(batch))
	s.stats.CrossShard += int64(len(batch))
	s.boundary += int64(len(batch))
	SortMsgs(batch)
	routed := make([][]Msg, len(s.parts))
	for _, m := range batch {
		pi, ok := s.owner[m.Dst]
		if ok {
			src, srcOK := s.owner[m.Src]
			if srcOK && src == pi {
				// A partition must deliver its own internal traffic
				// itself; one escaping here means its owned set lied.
				return fmt.Errorf("shard: partition %d leaked internal message %d→%d", pi, m.Src, m.Dst)
			}
		} else {
			return fmt.Errorf("shard: message for LP %d, which no partition owns", m.Dst)
		}
		routed[pi] = append(routed[pi], m)
	}
	s.each(func(i int, p Part) {
		if len(routed[i]) > 0 {
			errs[i] = p.Deliver(routed[i])
		} else {
			errs[i] = nil
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: partition %d: %w", i, err)
		}
	}
	return nil
}

// each runs fn for every partition concurrently and waits. With one
// partition it stays on the calling goroutine.
func (s *Sync) each(fn func(i int, p Part)) {
	if len(s.parts) == 1 {
		fn(0, s.parts[0])
		return
	}
	var wg sync.WaitGroup
	for i, p := range s.parts {
		wg.Add(1)
		go func(i int, p Part) {
			defer wg.Done()
			fn(i, p)
		}(i, p)
	}
	wg.Wait()
}
