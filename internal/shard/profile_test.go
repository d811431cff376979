package shard

import (
	"fmt"
	"strings"
	"testing"
)

// TestProfileDeterminism is the profiler's contract: a profiled run must
// be byte-identical to an unprofiled one — wall-clock reads are pure
// observation.
func TestProfileDeterminism(t *testing.T) {
	const n, until, lookahead = 7, 500.0, 5.0
	run := func(profile bool) ([]uint64, int) {
		k := NewKernel(3, lookahead)
		if profile {
			k.EnableProfile()
		}
		d := ringModel(t, k, n, until)
		return d, k.Stats().Windows
	}
	plain, plainWin := run(false)
	prof, profWin := run(true)
	if plainWin != profWin {
		t.Fatalf("profiled run executed %d windows, unprofiled %d", profWin, plainWin)
	}
	for i := range plain {
		if plain[i] != prof[i] {
			t.Fatalf("LP %d digest %x with profiler, %x without", i, prof[i], plain[i])
		}
	}
}

func TestProfileReport(t *testing.T) {
	const shards, lookahead = 2, 5.0
	k := NewKernel(shards, lookahead)
	k.EnableProfile()
	ringModel(t, k, 4, 200)

	r, ok := k.ProfileReport()
	if !ok {
		t.Fatal("ProfileReport not available after EnableProfile")
	}
	if r.Windows != k.Stats().Windows || r.Windows == 0 {
		t.Fatalf("report windows %d, kernel %d", r.Windows, k.Stats().Windows)
	}
	// Every window but the uncounted catch-up has a barrier-setting LP.
	if r.LimitedWindows != uint64(r.Windows) {
		t.Fatalf("limited windows %d of %d", r.LimitedWindows, r.Windows)
	}
	if r.Wall <= 0 {
		t.Fatal("window wall time not measured")
	}
	if len(r.Shards) != shards {
		t.Fatalf("%d shard rows, want %d", len(r.Shards), shards)
	}
	var events uint64
	for _, sp := range r.Shards {
		events += sp.Events
		if sp.Busy < 0 || sp.Busy > r.Wall {
			t.Errorf("shard %d busy %v outside [0, wall %v]", sp.Shard, sp.Busy, r.Wall)
		}
		if sp.Busy+sp.Idle > r.Wall+r.Wall/100 {
			t.Errorf("shard %d busy+idle %v exceeds wall %v", sp.Shard, sp.Busy+sp.Idle, r.Wall)
		}
		if sp.Utilization < 0 || sp.Utilization > 1 {
			t.Errorf("shard %d utilization %v", sp.Shard, sp.Utilization)
		}
		if sp.LPs != 2 {
			t.Errorf("shard %d has %d LPs, want 2", sp.Shard, sp.LPs)
		}
	}
	if events != k.Stats().TotalEvents {
		t.Errorf("shard rows account %d events, stats say %d", events, k.Stats().TotalEvents)
	}

	// Limiter attribution: every limited window is attributed exactly once.
	var attributed uint64
	for _, ls := range r.Limiters {
		attributed += ls.Windows
		if ls.Name == "" || ls.LP < 0 || ls.LP >= 4 {
			t.Errorf("bad limiter row %+v", ls)
		}
	}
	if attributed != r.LimitedWindows {
		t.Errorf("limiters account %d windows, report says %d", attributed, r.LimitedWindows)
	}
	for i := 1; i < len(r.Limiters); i++ {
		if r.Limiters[i].Windows > r.Limiters[i-1].Windows {
			t.Errorf("limiters not sorted by descending windows: %+v", r.Limiters)
		}
	}
	// The exact attribution pins which LP set each barrier: the lowest-ID
	// live LP holding the minimum next event.
	var got []string
	for _, ls := range r.Limiters {
		got = append(got, fmt.Sprintf("%s:%d", ls.Name, ls.Windows))
	}
	if want := "lp-2:13 lp-3:12 lp-1:6 lp-0:5"; strings.Join(got, " ") != want {
		t.Errorf("limiters %s, want %s", strings.Join(got, " "), want)
	}

	// Pair attribution: the ring model sends at lookahead + Exp jitter, so
	// every pair's observed MinDelay must be at (or just above) lookahead.
	if len(r.Pairs) == 0 {
		t.Fatal("no boundary pairs recorded")
	}
	for _, p := range r.Pairs {
		if p.MinDelay < lookahead {
			t.Errorf("pair %d→%d MinDelay %v below lookahead %v", p.SrcShard, p.DstShard, p.MinDelay, lookahead)
		}
	}

	// Registry read-throughs agree with the report.
	for s := 0; s < shards; s++ {
		if got := k.BusySeconds(s); got != r.Shards[s].Busy.Seconds() {
			t.Errorf("BusySeconds(%d) = %v, report %v", s, got, r.Shards[s].Busy.Seconds())
		}
		if got := k.IdleSeconds(s); got != r.Shards[s].Idle.Seconds() {
			t.Errorf("IdleSeconds(%d) = %v, report %v", s, got, r.Shards[s].Idle.Seconds())
		}
	}
}

func TestProfileDisabledIsZero(t *testing.T) {
	k := NewKernel(2, 5)
	ringModel(t, k, 4, 50)
	if _, ok := k.ProfileReport(); ok {
		t.Fatal("ProfileReport available without EnableProfile")
	}
	if k.Profiled() {
		t.Fatal("Profiled() true without EnableProfile")
	}
	if k.BusySeconds(0) != 0 || k.IdleSeconds(1) != 0 {
		t.Fatal("busy/idle nonzero without EnableProfile")
	}
}

func TestEnableProfileAfterRunPanics(t *testing.T) {
	k := NewKernel(1, 5)
	ringModel(t, k, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("EnableProfile after Run did not panic")
		}
	}()
	k.EnableProfile()
}

// TestLimiterAcrossParts: the limiter is attributed where Sync places the
// barrier, so a profiled model split into restricted in-process parts
// attributes every window to the same LPs as the one-kernel run.
func TestLimiterAcrossParts(t *testing.T) {
	const n, until, lookahead = 6, 300.0, 5.0
	build := func() *Kernel {
		k := NewKernel(2, lookahead)
		k.EnableProfile()
		buildRing(k, n, until)
		return k
	}
	limiters := func(ks ...*Kernel) (map[string]uint64, uint64) {
		m, total := map[string]uint64{}, uint64(0)
		for _, k := range ks {
			r, _ := k.ProfileReport()
			for _, ls := range r.Limiters {
				m[ls.Name] += ls.Windows
			}
			total += r.LimitedWindows
		}
		return m, total
	}
	ref := build()
	ref.Run(until)
	want, wantTotal := limiters(ref)
	if len(want) < 3 || wantTotal != uint64(ref.Stats().Windows) {
		t.Fatalf("reference limiters %v over %d windows: model too regular to test", want, ref.Stats().Windows)
	}
	for _, parts := range []int{2, 3} {
		assign := PartitionContiguous(n, parts, nil)
		ks := make([]*Kernel, parts)
		ps := make([]Part, parts)
		for p := range ks {
			ks[p] = build()
			var owned []int
			for i, a := range assign {
				if a == p {
					owned = append(owned, i)
				}
			}
			ks[p].Own(owned)
			ps[p] = ks[p]
		}
		sy, err := NewSync(lookahead, ps)
		if err != nil {
			t.Fatal(err)
		}
		if err := sy.Run(until); err != nil {
			t.Fatal(err)
		}
		got, total := limiters(ks...)
		if fmt.Sprint(got) != fmt.Sprint(want) || total != wantTotal {
			t.Errorf("parts=%d: limiters %v (%d windows), want %v (%d)", parts, got, total, want, wantTotal)
		}
		if sy.Stats().Windows != ref.Stats().Windows {
			t.Errorf("parts=%d: %d windows, want %d", parts, sy.Stats().Windows, ref.Stats().Windows)
		}
	}
}
