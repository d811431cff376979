package api

import (
	"runtime"
	"testing"
	"time"

	"df3/internal/sim"
)

// maxLiveHeapGrowth bounds how much a live plane's retained heap may grow
// between its first and its fourth simulated day. A per-tick comfort
// trace would add 0.9 MiB to liveFederation over those three days;
// monthly comfort sums keep the heap flat.
const maxLiveHeapGrowth = 256 << 10

// TestLiveHeapFlatOverSimulatedTime: a live plane's retained heap does
// not grow with the simulated time it serves. A test clock jumps the
// paced driver a day ahead at a time; once the federation has caught up,
// the heap is measured with the driver held (Sync), so no slice runs
// while the garbage collector counts.
func TestLiveHeapFlatOverSimulatedTime(t *testing.T) {
	clk := &jumpClock{}
	l := NewLive(liveFederation(), LiveConfig{
		Speed: 1, MaxSlice: 600, Tick: time.Millisecond, Clock: clk,
	})
	l.Start()
	defer func() { _ = l.Stop() }()
	// The driver anchors its wall clock when it starts, so jump only once
	// it has run a slice.
	for l.paced.Slices() == 0 {
		time.Sleep(time.Millisecond)
	}
	heapAt := func(day int) uint64 {
		clk.jump(24 * time.Hour)
		wall := sim.WallClock{}
		deadline := wall.Now().Add(30 * time.Second)
		for {
			var now sim.Time
			var heap uint64
			l.Sync(func() {
				now = l.Federation().Now()
				if now >= sim.Time(day)*sim.Day {
					runtime.GC()
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					heap = ms.HeapAlloc
				}
			})
			if heap > 0 {
				return heap
			}
			if wall.Now().After(deadline) {
				t.Fatalf("the live plane reached %v s of simulated time, want day %d", now, day)
			}
			time.Sleep(time.Millisecond)
		}
	}
	day1 := heapAt(1)
	heapAt(2)
	heapAt(3)
	day4 := heapAt(4)
	growth := int64(day4) - int64(day1)
	t.Logf("retained heap: %d B after day 1, %d B after day 4 (%+d B)", day1, day4, growth)
	if growth > maxLiveHeapGrowth {
		t.Errorf("retained heap grew %d B from day 1 to day 4, over the bound %d B", growth, maxLiveHeapGrowth)
	}
}
