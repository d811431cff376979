package shard

import (
	"encoding/binary"
	"fmt"
	"testing"

	"df3/internal/rng"
	"df3/internal/sim"
)

// ringModel builds the ring of buildRing on k and runs it to until,
// returning each LP's digest.
func ringModel(t *testing.T, k *Kernel, n int, until sim.Time) []uint64 {
	t.Helper()
	digests := buildRing(k, n, until)
	k.Run(until)
	return digests
}

// buildRing builds n interacting LPs on a kernel without running them:
// each LP runs a Poisson generator off its own ForkNamed substream and, on
// every arrival, sends a (kind, payload) message one step around the ring
// with a delay of lookahead plus a jittered slack. The decoder folds
// (payload, arrival time) into the receiver's digest and schedules a local
// follow-up event, so the digests are sensitive to event order, message
// order and RNG draws alike. The model also runs split into restricted
// parts under a Sync; each digest is then read from the LP's owner.
func buildRing(k *Kernel, n int, until sim.Time) []uint64 {
	digests := make([]uint64, n)
	lps := make([]*LP, n)
	for i := 0; i < n; i++ {
		lps[i] = k.AddLP(fmt.Sprintf("lp-%d", i), sim.New(), until)
	}
	fold := func(i int, v uint64) {
		h := digests[i]
		h ^= v
		h *= 1099511628211
		digests[i] = h
	}
	k.SetDecoder(func(dst *LP, kind uint32, payload []byte) (func(), error) {
		if kind != 1 || len(payload) != 8 {
			return nil, fmt.Errorf("ring message kind %d with %d payload bytes", kind, len(payload))
		}
		j, v := dst.ID, binary.LittleEndian.Uint64(payload)
		return func() {
			fold(j, v)
			fold(j, uint64(dst.Engine.Now()*1e6))
			dst.Engine.AfterTransient(0.25, func() { fold(j, 7) })
		}, nil
	})
	for i := 0; i < n; i++ {
		i := i
		stream := rng.New(42).ForkNamed(fmt.Sprintf("gen-%d", i))
		e := lps[i].Engine
		var arrival func()
		arrival = func() {
			now := e.Now()
			fold(i, uint64(now*1e6))
			delay := k.Lookahead() + stream.Exp(0.5)
			payload := binary.LittleEndian.AppendUint64(nil, stream.Uint64())
			k.SendMsg(lps[i], lps[(i+1)%n], delay, 128, 1, payload)
			next := stream.Exp(0.2)
			if now+next <= until {
				e.AtTransient(now+next, arrival)
			}
		}
		e.At(stream.Exp(0.2), arrival)
	}
	return digests
}

// TestDeterminismAcrossShardCounts is the kernel's contract: the same model
// partitioned onto 1, 2, 3 and 5 shards produces identical digests, event
// counts and clocks.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	const n, until, lookahead = 7, 500.0, 5.0
	type outcome struct {
		digests []uint64
		fired   []uint64
		windows int
	}
	run := func(shards int) outcome {
		k := NewKernel(shards, lookahead)
		d := ringModel(t, k, n, until)
		var fired []uint64
		for _, lp := range k.LPs() {
			fired = append(fired, lp.Engine.Fired())
			if lp.Engine.Now() != until {
				t.Fatalf("shards=%d: LP %s clock %v, want %v", shards, lp.Name, lp.Engine.Now(), until)
			}
		}
		return outcome{d, fired, k.Stats().Windows}
	}
	want := run(1)
	if want.windows == 0 {
		t.Fatal("serial run executed no windows")
	}
	for _, shards := range []int{2, 3, 5} {
		got := run(shards)
		for i := range want.digests {
			if got.digests[i] != want.digests[i] {
				t.Errorf("shards=%d: LP %d digest %x, want %x", shards, i, got.digests[i], want.digests[i])
			}
			if got.fired[i] != want.fired[i] {
				t.Errorf("shards=%d: LP %d fired %d, want %d", shards, i, got.fired[i], want.fired[i])
			}
		}
		if got.windows != want.windows {
			t.Errorf("shards=%d: %d windows, want %d (barriers must be partition-independent)", shards, got.windows, want.windows)
		}
	}
}

// TestStatsAndBoundary checks message accounting: every send is counted,
// cross-shard traffic only counts pairs on different shards, and the
// critical path is bounded by the total.
func TestStatsAndBoundary(t *testing.T) {
	k := NewKernel(2, 5)
	ringModel(t, k, 4, 200)
	st := k.Stats()
	if st.Sent == 0 {
		t.Fatal("no messages sent")
	}
	if st.CrossShard == 0 || st.CrossShard > st.Sent {
		t.Fatalf("cross-shard %d of %d sent", st.CrossShard, st.Sent)
	}
	if st.CriticalEvents == 0 || st.CriticalEvents > st.TotalEvents {
		t.Fatalf("critical %d of %d total", st.CriticalEvents, st.TotalEvents)
	}
	if s := st.Speedup(); s < 1 || s > 2 {
		t.Fatalf("speedup %v out of [1,2] on 2 shards", s)
	}
	var msgs int64
	var bytes float64
	for _, p := range k.Boundary() {
		msgs += p.Messages
		bytes += p.Bytes
	}
	if msgs != st.Sent {
		t.Fatalf("boundary accounts %d messages, stats say %d", msgs, st.Sent)
	}
	if want := float64(st.Sent) * 128; bytes != want {
		t.Fatalf("boundary bytes %v, want %v", bytes, want)
	}
}

// TestIndependentLPs runs LPs that exchange no messages under a finite
// lookahead: the windows advance on the next event, and each LP stops
// exactly at its own horizon however far the others run.
func TestIndependentLPs(t *testing.T) {
	k := NewKernel(3, 5)
	horizons := []sim.Time{10, 25, 40}
	counts := make([]int, len(horizons))
	for i, h := range horizons {
		i := i
		lp := k.AddLP(fmt.Sprintf("lp-%d", i), sim.New(), h)
		var tick func()
		tick = func() {
			counts[i]++
			lp.Engine.AfterTransient(1, tick)
		}
		lp.Engine.At(0.5, tick)
	}
	k.Run(40)
	for i, h := range horizons {
		lp := k.LPs()[i]
		if lp.Engine.Now() != h {
			t.Errorf("LP %d clock %v, want %v", i, lp.Engine.Now(), h)
		}
		if want := int(h); counts[i] != want {
			t.Errorf("LP %d ticked %d, want %d", i, counts[i], want)
		}
	}
	if st := k.Stats(); st.Windows == 0 || st.Sent != 0 {
		t.Errorf("independent LPs ran %d windows and sent %d messages", st.Windows, st.Sent)
	}
}

// TestLookaheadViolationPanics: a sub-lookahead delay is a model bug the
// kernel must refuse loudly.
func TestLookaheadViolationPanics(t *testing.T) {
	k := NewKernel(2, 5)
	k.SetDecoder(func(*LP, uint32, []byte) (func(), error) { return func() {}, nil })
	a := k.AddLP("a", sim.New(), 10)
	b := k.AddLP("b", sim.New(), 10)
	a.Engine.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("SendMsg below lookahead did not panic")
			}
		}()
		k.SendMsg(a, b, 1, 0, 1, nil)
	})
	k.Run(10)
}

// TestPartitionContiguous covers balance, contiguity and weighted cuts.
func TestPartitionContiguous(t *testing.T) {
	cases := []struct {
		n, shards int
		weights   []float64
		want      []int
	}{
		{4, 2, nil, []int{0, 0, 1, 1}},
		{5, 2, nil, []int{0, 0, 0, 1, 1}},
		{3, 3, nil, []int{0, 1, 2}},
		{6, 4, nil, []int{0, 0, 1, 2, 2, 3}},
		// One heavy LP pulls the first cut early.
		{4, 2, []float64{10, 1, 1, 1}, []int{0, 1, 1, 1}},
	}
	for _, c := range cases {
		got := PartitionContiguous(c.n, c.shards, c.weights)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PartitionContiguous(%d,%d,%v) = %v, want %v", c.n, c.shards, c.weights, got, c.want)
				break
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Errorf("partition not contiguous: %v", got)
			}
		}
	}
}

// TestForkNamedStability pins the substream contract: same label, same
// stream; different labels diverge; order of forking elsewhere matters only
// through the parent state (documented Fork semantics).
func TestForkNamedStability(t *testing.T) {
	a := rng.New(7).ForkNamed("shard-0").Uint64()
	b := rng.New(7).ForkNamed("shard-0").Uint64()
	c := rng.New(7).ForkNamed("shard-1").Uint64()
	if a != b {
		t.Fatalf("same label diverged: %x vs %x", a, b)
	}
	if a == c {
		t.Fatalf("different labels collided: %x", a)
	}
}
