package city

import (
	"runtime"
	"testing"

	"df3/internal/sim"
)

// maxHeapGrowth bounds how much a federation's retained heap may grow
// between its first and its fourth simulated day. Keeping a point per
// control tick and a sample per request would add 4.4 MiB to memorySpec
// over those three days; monthly comfort sums and stats-only cities add
// under 100 KiB, mostly the cities' sampled time series.
const maxHeapGrowth = 256 << 10

// memorySpec is a small federation with every traffic class running for
// the whole four days.
var memorySpec = Spec{
	Seed: 3, Cities: 2, Buildings: 2, Rooms: 4, Days: 4,
	EdgeRate: 1, DCCRate: 6, InterCity: 2,
}

// retainedHeap collects garbage and returns the live heap.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFederationHeapFlatOverSimulatedTime: a federation's retained heap
// scales with the fleet, not the horizon. After four simulated days it
// is within maxHeapGrowth of its heap after one, and no city retains a
// latency sample.
func TestFederationHeapFlatOverSimulatedTime(t *testing.T) {
	f := memorySpec.Build(1)
	f.Run(sim.Day)
	day1 := retainedHeap()
	f.Run(4 * sim.Day)
	day4 := retainedHeap()
	growth := int64(day4) - int64(day1)
	t.Logf("retained heap: %d B after day 1, %d B after day 4 (%+d B)", day1, day4, growth)
	if growth > maxHeapGrowth {
		t.Errorf("retained heap grew %d B from day 1 to day 4, over the bound %d B", growth, maxHeapGrowth)
	}
	for i, c := range f.Cities {
		if n := len(c.MW.Edge.Latency.Values()); n != 0 || c.MW.Edge.Latency.Count() == 0 {
			t.Errorf("city %d retains %d of %d latencies, want none", i, n, c.MW.Edge.Latency.Count())
		}
	}
}
