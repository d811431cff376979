package city

import (
	"runtime"
	"testing"
)

// maxAllocsPerEvent bounds the heap allocations a federation run makes per
// fired event on ratchetSpec. The run measures 0.236; the bound leaves 5%
// for allocation counts that shift between Go releases (the figure is a
// ratio, so it holds across toolchains where exact per-experiment counts
// need not). When a change lowers the figure, lower the bound to about
// 1.05× the new one.
const maxAllocsPerEvent = 0.25

// ratchetSpec is a small federation that runs every hot path a full run
// does: edge requests, DCC jobs and inter-city traffic over the fabric.
var ratchetSpec = Spec{
	Seed: 3, Cities: 2, Buildings: 4, Rooms: 6, Days: 0.05,
	EdgeRate: 1, DCCRate: 6, InterCity: 2,
}

// TestAllocsPerEventRatchet fails when the simulation core allocates more
// per event than the committed bound: a per-event malloc that creeps back
// into forwarding, scheduling or the middleware shows up here as a ratio.
func TestAllocsPerEventRatchet(t *testing.T) {
	f := ratchetSpec.Build(1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f.Run(ratchetSpec.Until())
	runtime.ReadMemStats(&after)
	events := f.Kernel.Stats().TotalEvents
	if events == 0 {
		t.Fatal("the run fired no events")
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d allocations over %d events: %.3f per event (bound %.2f)",
		after.Mallocs-before.Mallocs, events, perEvent, maxAllocsPerEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("%.3f allocations per event, over the committed bound %.2f", perEvent, maxAllocsPerEvent)
	}
}
