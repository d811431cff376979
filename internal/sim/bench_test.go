package sim

import "testing"

func BenchmarkScheduleFire(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		if e.Pending() > 1024 {
			e.Run(e.Now() + 2)
		}
	}
	e.Run(e.Now() + 2)
}

func BenchmarkEventChurn(b *testing.B) {
	// The simulator's hot pattern: schedule, cancel half, fire the rest.
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev1 := e.After(1, func() {})
		e.After(1.5, func() {})
		e.Cancel(ev1)
		if e.Pending() > 1024 {
			e.Run(e.Now() + 2)
		}
	}
	e.Run(e.Now() + 2)
}

func BenchmarkTicker(b *testing.B) {
	e := New()
	n := 0
	e.Domain(1).Subscribe(func(Time) { n++ })
	b.ResetTimer()
	e.Run(Time(b.N))
	if n == 0 && b.N > 1 {
		b.Fatal("ticker never fired")
	}
}

// BenchmarkManyTickersSamePeriod is the city control-plane shape: hundreds
// of same-period callbacks (one per room) ticking for a long horizon. One
// iteration is one callback invocation, so ns/op is directly comparable
// across kernels regardless of how the callbacks are scheduled.
func BenchmarkManyTickersSamePeriod(b *testing.B) {
	const rooms = 512
	e := New()
	n := 0
	for i := 0; i < rooms; i++ {
		e.Domain(60).Subscribe(func(Time) { n++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	ticks := b.N/rooms + 1
	e.Run(Time(ticks) * 60)
	b.StopTimer()
	if n < b.N {
		b.Fatalf("fired %d callbacks, want >= %d", n, b.N)
	}
}
