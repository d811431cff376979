package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"df3/internal/sim"
)

// pingScenario builds n LPs that exchange payload messages: each LP
// ticks every second until horizon, and every 5th tick sends a counter
// increment to the next LP with the kernel's lookahead delay. The
// observable outcome (per-LP counters, fired counts, clocks) is a pure
// function of the message stream, so any partitioning must reproduce it.
type pingScenario struct {
	k        *Kernel
	lps      []*LP
	counters []uint64
	horizon  sim.Time
}

func buildPing(shards, n int, horizon sim.Time) *pingScenario {
	const lookahead sim.Time = 3
	s := &pingScenario{k: NewKernel(shards, lookahead), horizon: horizon}
	s.counters = make([]uint64, n)
	s.k.SetDecoder(func(dst *LP, kind uint32, payload []byte) (func(), error) {
		if kind != 7 {
			return nil, fmt.Errorf("unknown kind %d", kind)
		}
		inc := binary.LittleEndian.Uint64(payload)
		id := dst.ID
		return func() { s.counters[id] += inc }, nil
	})
	for i := 0; i < n; i++ {
		i := i
		e := sim.New()
		lp := s.k.AddLP(fmt.Sprintf("lp-%d", i), e, horizon)
		s.lps = append(s.lps, lp)
		tick := 0
		var schedule func()
		schedule = func() {
			e.AfterTransient(1, func() {
				tick++
				s.counters[i]++
				if tick%5 == 0 {
					var p [8]byte
					binary.LittleEndian.PutUint64(p[:], uint64(tick))
					dst := s.lps[(i+1)%n]
					s.k.SendMsg(lp, dst, 3, 8, 7, p[:])
				}
				if e.Now() < horizon-1 {
					schedule()
				}
			})
		}
		schedule()
	}
	return s
}

func (s *pingScenario) fingerprint() string {
	var b strings.Builder
	for i, lp := range s.lps {
		fmt.Fprintf(&b, "%d:%d:%d:%v;", i, s.counters[i], lp.Engine.Fired(), lp.Engine.Now())
	}
	return b.String()
}

// TestSyncMatchesKernelRun: 1, 2 and 3 restricted parts of two shards
// each (the multi-node shape, in process) must reproduce the one-part
// run, Kernel.Run on a single unrestricted kernel, byte for byte.
func TestSyncMatchesKernelRun(t *testing.T) {
	const n, horizon = 7, 50
	ref := buildPing(1, n, horizon)
	ref.k.Run(horizon)
	want := ref.fingerprint()
	wantEvents := ref.k.Stats().TotalEvents

	for _, nodes := range []int{1, 2, 3} {
		// Each "node" builds the full scenario and owns a contiguous block,
		// exactly as df3node does.
		assign := PartitionContiguous(n, nodes, nil)
		scens := make([]*pingScenario, nodes)
		parts := make([]Part, nodes)
		for p := 0; p < nodes; p++ {
			scens[p] = buildPing(2, n, horizon)
			var owned []int
			for i, a := range assign {
				if a == p {
					owned = append(owned, i)
				}
			}
			scens[p].k.Own(owned)
			parts[p] = scens[p].k
		}
		sy, err := NewSync(3, parts)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if err := sy.Run(horizon); err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		// Merge the per-node views: every LP is read from its owner.
		merged := &pingScenario{horizon: horizon}
		for i := 0; i < n; i++ {
			owner := scens[assign[i]]
			merged.lps = append(merged.lps, owner.lps[i])
			merged.counters = append(merged.counters, owner.counters[i])
		}
		if got := merged.fingerprint(); got != want {
			t.Errorf("nodes=%d: fingerprint\n got %s\nwant %s", nodes, got, want)
		}
		if got := sy.Stats().TotalEvents; got != wantEvents {
			t.Errorf("nodes=%d: TotalEvents %d, want %d", nodes, got, wantEvents)
		}
		if sy.Now() != horizon {
			t.Errorf("nodes=%d: Now() %v, want %v", nodes, sy.Now(), horizon)
		}
	}
}

// TestWindowEndNaNRejected: a NaN window end compares false against every
// horizon, so it would run every LP to completion; it must fail instead.
func TestWindowEndNaNRejected(t *testing.T) {
	k := NewKernel(1, 3)
	a := k.AddLP("a", sim.New(), 100)
	fired := false
	a.Engine.AtTransient(50, func() { fired = true })
	if _, err := k.RunWindow(math.NaN()); err == nil {
		t.Fatal("RunWindow accepted a NaN window end")
	}
	if fired || a.Engine.Now() != 0 {
		t.Fatalf("NaN window advanced the LP to %v (fired %v)", a.Engine.Now(), fired)
	}
}

// TestDeliverRejectsUnowned: delivery addressed outside the partition, or
// naming a sender or arrival time the kernel cannot order, is a routing
// bug and must be refused rather than crash or be dropped.
func TestDeliverRejectsUnowned(t *testing.T) {
	k := NewKernel(1, 3)
	k.AddLP("a", sim.New(), 100)
	k.AddLP("b", sim.New(), 100)
	k.SetDecoder(func(*LP, uint32, []byte) (func(), error) { return func() {}, nil })
	k.Own([]int{0})
	err := k.Deliver([]Msg{{At: 5, Src: 0, Dst: 1, Kind: 1}})
	if err == nil || !strings.Contains(err.Error(), "own") {
		t.Fatalf("Deliver error = %v, want ownership error", err)
	}
	if err := k.Deliver([]Msg{{At: 5, Src: 0, Dst: 9, Kind: 1}}); err == nil {
		t.Fatal("Deliver accepted an out-of-range LP")
	}
	if err := k.Deliver([]Msg{{At: 5, Src: 9, Dst: 0, Kind: 1}}); err == nil {
		t.Fatal("Deliver accepted an out-of-range sender")
	}
	if err := k.Deliver([]Msg{{At: math.NaN(), Src: 1, Dst: 0, Kind: 1}}); err == nil {
		t.Fatal("Deliver accepted a NaN arrival time")
	}
	if _, err := k.RunWindow(10); err != nil {
		t.Fatal(err)
	}
	if err := k.Deliver([]Msg{{At: 5, Src: 1, Dst: 0, Kind: 1}}); err == nil {
		t.Fatal("Deliver accepted an arrival before the receiver's clock")
	}
}

// TestSyncRejectsOverlap: two partitions claiming one LP is a partition
// bug the coordinator must catch at wiring time.
func TestSyncRejectsOverlap(t *testing.T) {
	s1 := buildPing(1, 3, 10)
	s2 := buildPing(1, 3, 10)
	s1.k.Own([]int{0, 1})
	s2.k.Own([]int{1, 2})
	if _, err := NewSync(3, []Part{s1.k, s2.k}); err == nil {
		t.Fatal("NewSync accepted overlapping partitions")
	}
}

// TestDecoderErrors: missing decoder and unknown kinds surface as
// errors, not panics, on the delivery path.
func TestDecoderErrors(t *testing.T) {
	k := NewKernel(1, 3)
	k.AddLP("a", sim.New(), 100)
	if err := k.Deliver([]Msg{{At: 1, Src: 0, Dst: 0, Kind: 9}}); err == nil {
		t.Fatal("delivery without a decoder succeeded")
	}
	k2 := NewKernel(1, 3)
	k2.AddLP("a", sim.New(), 100)
	k2.SetDecoder(func(dst *LP, kind uint32, payload []byte) (func(), error) {
		return nil, fmt.Errorf("unknown kind %d", kind)
	})
	if err := k2.Deliver([]Msg{{At: 1, Src: 0, Dst: 0, Kind: 9}}); err == nil {
		t.Fatal("decode error did not fail delivery")
	}
}
