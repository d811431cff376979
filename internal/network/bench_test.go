package network

import (
	"testing"

	"df3/internal/sim"
)

func BenchmarkSendOneHop(b *testing.B) {
	e := sim.New()
	f, a, n := pairBench(e)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Send(a, n, 16e3, func(sim.Time) {})
		if e.Pending() > 1024 {
			e.Run(e.Now() + 1)
		}
	}
	e.Run(e.Now() + 1e6)
}

// BenchmarkSendMultiHop forwards 16 kB messages over a 4-hop LAN chain on
// a warm route with a deliver func built once: the per-message cost of
// the fabric and the engine, without the caller's closures.
func BenchmarkSendMultiHop(b *testing.B) {
	e := sim.New()
	f, nodes := chain(e, 5, LAN)
	src, dst := nodes[0], nodes[len(nodes)-1]
	delivered := 0
	deliver := func(sim.Time) { delivered++ }
	f.Route(src, dst) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(src, dst, 16e3, deliver)
		if e.Pending() > 1024 {
			e.Run(e.Now() + 1)
		}
	}
	e.Run(e.Now() + 1e6)
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

func BenchmarkRouteCached(b *testing.B) {
	e := sim.New()
	f, nodes := chain(e, 32, LAN)
	f.Route(nodes[0], nodes[31]) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Route(nodes[0], nodes[31])
	}
}

func pairBench(e *sim.Engine) (*Fabric, NodeID, NodeID) {
	f := NewFabric(e)
	a, b := f.AddNode("a"), f.AddNode("b")
	f.Connect(a, b, LAN)
	return f, a, b
}

// chain builds n nodes linked in a line by links of class c.
func chain(e *sim.Engine, n int, c Class) (*Fabric, []NodeID) {
	f := NewFabric(e)
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = f.AddNode("n")
	}
	for i := 1; i < n; i++ {
		f.Connect(nodes[i-1], nodes[i], c)
	}
	return f, nodes
}
