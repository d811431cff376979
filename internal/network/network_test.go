package network

import (
	"math"
	"testing"
	"testing/quick"

	"df3/internal/sim"
	"df3/internal/units"
)

func pair(e *sim.Engine, c Class) (*Fabric, NodeID, NodeID) {
	f := NewFabric(e)
	a, b := f.AddNode("a"), f.AddNode("b")
	f.Connect(a, b, c)
	return f, a, b
}

func TestSendLatencyOnly(t *testing.T) {
	e := sim.New()
	f, a, b := pair(e, Class{Latency: 0.010, Bandwidth: 0}) // infinite bw
	var at sim.Time = -1
	f.Send(a, b, 1000, func(t sim.Time) { at = t })
	e.Run(1)
	if math.Abs(at-0.010) > 1e-12 {
		t.Errorf("arrival = %v, want 0.010", at)
	}
}

func TestSendSerialisation(t *testing.T) {
	e := sim.New()
	f, a, b := pair(e, Class{Latency: 0.001, Bandwidth: 1000}) // 1 kB/s
	var t1, t2 sim.Time
	f.Send(a, b, 500, func(t sim.Time) { t1 = t }) // 0.5 s serialisation
	f.Send(a, b, 500, func(t sim.Time) { t2 = t }) // queued behind the first
	e.Run(10)
	if math.Abs(t1-0.501) > 1e-9 {
		t.Errorf("first arrival = %v, want 0.501", t1)
	}
	if math.Abs(t2-1.001) > 1e-9 {
		t.Errorf("second arrival = %v, want 1.001 (FIFO)", t2)
	}
}

func TestMultiHop(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, g, dc := f.AddNode("device"), f.AddNode("gateway"), f.AddNode("dc")
	f.Connect(a, g, Class{Latency: 0.001, Bandwidth: 0})
	f.Connect(g, dc, Class{Latency: 0.030, Bandwidth: 0})
	var at sim.Time
	f.Send(a, dc, 100, func(t sim.Time) { at = t })
	e.Run(1)
	if math.Abs(at-0.031) > 1e-12 {
		t.Errorf("two-hop arrival = %v, want 0.031", at)
	}
	if l := f.PathLatency(a, dc); math.Abs(l-0.031) > 1e-12 {
		t.Errorf("path latency = %v", l)
	}
}

func TestRouteMinHop(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	n := make([]NodeID, 5)
	for i := range n {
		n[i] = f.AddNode("n")
	}
	// Ring 0-1-2-3-4-0: route 0→2 should be 2 hops.
	for i := 0; i < 5; i++ {
		f.Connect(n[i], n[(i+1)%5], LAN)
	}
	path := f.Route(n[0], n[2])
	if len(path) != 3 {
		t.Errorf("route length = %d, want 3: %v", len(path), path)
	}
}

func TestUnreachable(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, b := f.AddNode("a"), f.AddNode("b")
	if f.Route(a, b) != nil {
		t.Error("route exists between unconnected nodes")
	}
	if f.PathLatency(a, b) != -1 {
		t.Error("path latency should be -1 when unreachable")
	}
	if f.Send(a, b, 10, func(sim.Time) {}) {
		t.Error("send succeeded to unreachable node")
	}
}

func TestSelfDelivery(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a := f.AddNode("a")
	delivered := false
	if !f.Send(a, a, 10, func(sim.Time) { delivered = true }) {
		t.Fatal("self-send failed")
	}
	e.Run(1)
	if !delivered {
		t.Error("self-send not delivered")
	}
}

func TestLinkAccounting(t *testing.T) {
	e := sim.New()
	f, a, b := pair(e, LAN)
	f.Send(a, b, 1000, func(sim.Time) {})
	f.Send(a, b, 500, func(sim.Time) {})
	e.Run(1)
	l := f.Link(a, b)
	if l.BytesCarried() != 1500 {
		t.Errorf("bytes carried = %v", l.BytesCarried())
	}
	if l.Messages() != 2 {
		t.Errorf("messages = %d", l.Messages())
	}
}

func TestTechnologyClassesOrdered(t *testing.T) {
	// The latency hierarchy the edge argument rests on: LAN < Metro <
	// Internet, and LoRa is the slowest pipe.
	if !(LAN.Latency < Metro.Latency && Metro.Latency < Internet.Latency) {
		t.Error("wired latency hierarchy broken")
	}
	if LoRa.Bandwidth >= Zigbee.Bandwidth {
		t.Error("LoRa should be slower than Zigbee")
	}
	if BoilerNet.Bandwidth <= LAN.Bandwidth {
		t.Error("boiler fabric should beat building LAN")
	}
}

func TestDeterministicRoutes(t *testing.T) {
	build := func() []NodeID {
		e := sim.New()
		f := NewFabric(e)
		n := make([]NodeID, 8)
		for i := range n {
			n[i] = f.AddNode("n")
		}
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				f.Connect(n[i], n[j], LAN)
			}
		}
		return f.Route(n[0], n[7])
	}
	p1, p2 := build(), build()
	if len(p1) != len(p2) {
		t.Fatalf("route lengths differ: %v vs %v", p1, p2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("routes differ: %v vs %v", p1, p2)
		}
	}
}

// Property: messages on one link arrive in FIFO order and never earlier
// than latency + size/bandwidth after injection.
func TestFIFOProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := sim.New()
		fab, a, b := pair(e, Class{Latency: 0.01, Bandwidth: 10000})
		var arrivals []sim.Time
		var mins []sim.Time
		for _, sz := range sizes {
			size := units.Byte(sz%5000 + 1)
			inject := e.Now()
			mins = append(mins, inject+0.01+sim.Time(float64(size)/10000))
			fab.Send(a, b, size, func(t sim.Time) { arrivals = append(arrivals, t) })
		}
		e.Run(1e6)
		if len(arrivals) != len(sizes) {
			return false
		}
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i] < arrivals[i-1] {
				return false
			}
		}
		for i := range arrivals {
			if arrivals[i]+1e-12 < mins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: on a chain topology, PathLatency equals the sum of per-hop
// latencies, for any chain length and hop latency.
func TestPathLatencyChainProperty(t *testing.T) {
	f := func(n8 uint8, lat16 uint16) bool {
		n := int(n8%8) + 2
		hop := sim.Time(lat16%1000+1) / 1000
		e := sim.New()
		fab := NewFabric(e)
		nodes := make([]NodeID, n)
		for i := range nodes {
			nodes[i] = fab.AddNode("n")
		}
		for i := 1; i < n; i++ {
			fab.Connect(nodes[i-1], nodes[i], Class{Latency: hop, Bandwidth: 0})
		}
		got := fab.PathLatency(nodes[0], nodes[n-1])
		want := hop * sim.Time(n-1)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReconnectInvalidatesRoutes(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, b, c := f.AddNode("a"), f.AddNode("b"), f.AddNode("c")
	f.Connect(a, b, LAN)
	f.Connect(b, c, LAN)
	if got := len(f.Route(a, c)); got != 3 {
		t.Fatalf("initial route length %d", got)
	}
	// Add a direct link: the cached two-hop route must be recomputed.
	f.Connect(a, c, LAN)
	if got := len(f.Route(a, c)); got != 2 {
		t.Errorf("route after reconnect has %d nodes, want direct", got)
	}
}

func TestSendZeroBytes(t *testing.T) {
	e := sim.New()
	f, a, b := pair(e, LAN)
	var at sim.Time = -1
	f.Send(a, b, 0, func(t sim.Time) { at = t })
	e.Run(1)
	if at < 0 {
		t.Fatal("zero-byte message not delivered")
	}
	if math.Abs(at-float64(LAN.Latency)) > 1e-12 {
		t.Errorf("zero-byte arrival = %v, want pure latency", at)
	}
}

// TestSendSteadyStateAllocs pins allocation-free forwarding: once the
// route is cached and the transfer and event pools are warm, a multi-hop
// send and its delivery allocate nothing.
func TestSendSteadyStateAllocs(t *testing.T) {
	e := sim.New()
	f, nodes := chain(e, 5, LAN)
	src, dst := nodes[0], nodes[len(nodes)-1]
	delivered := 0
	deliver := func(sim.Time) { delivered++ }
	allocs := testing.AllocsPerRun(100, func() {
		if !f.Send(src, dst, 16e3, deliver) {
			t.Fatal("send refused on a live chain")
		}
		e.Run(e.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("a 4-hop send and its delivery allocate %v, want 0", allocs)
	}
	if delivered != 101 { // AllocsPerRun runs once more to warm up
		t.Fatalf("delivered %d of 101 messages", delivered)
	}
}

// TestRoutesResolveLinks: Route, Route(a, a) and PathLatency answer from
// the resolved cache exactly as a fresh walk of the path over Link would.
func TestRoutesResolveLinks(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, b, c := f.AddNode("a"), f.AddNode("b"), f.AddNode("c")
	f.Connect(a, b, Class{Name: "x", Latency: 0.1, Bandwidth: 0})
	f.Connect(b, c, Class{Name: "y", Latency: 0.2, Bandwidth: 0})
	f.Connect(a, c, Class{Name: "z", Latency: 0.7, Bandwidth: 0})
	if got := f.Route(a, a); len(got) != 1 || got[0] != a {
		t.Fatalf("Route(a, a) = %v, want [a]", got)
	}
	if got := f.PathLatency(a, a); got != 0 {
		t.Fatalf("PathLatency(a, a) = %v, want 0", got)
	}
	walk := func(path []NodeID) sim.Time {
		var total sim.Time
		for i := 0; i+1 < len(path); i++ {
			total += f.Link(path[i], path[i+1]).Latency
		}
		return total
	}
	if got, want := f.PathLatency(a, c), walk(f.Route(a, c)); got != want || want != 0.7 {
		t.Fatalf("PathLatency(a, c) = %v, walk %v, want 0.7", got, want)
	}
	var at sim.Time
	f.Send(a, c, 0, func(t sim.Time) { at = t })
	e.Run(10)
	if at != walk(f.Route(a, c)) {
		t.Fatalf("send arrived at %v, want %v", at, walk(f.Route(a, c)))
	}
	f.FailNode(b)
	if got := f.PathLatency(a, c); got != 0.7 {
		t.Fatalf("PathLatency after FailNode(b) = %v, want the direct 0.7", got)
	}
	f.FailNode(a)
	if f.Route(a, a) != nil || f.PathLatency(a, c) != -1 {
		t.Fatal("a failed endpoint still routes")
	}
}

// TestConnectInFlight: reconnecting a pair replaces its links; a message
// already on the wire finishes over the links its route resolved, and the
// next send uses the new class.
func TestConnectInFlight(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, b, c := f.AddNode("a"), f.AddNode("b"), f.AddNode("c")
	f.Connect(a, b, Class{Name: "old", Latency: 1, Bandwidth: 0})
	f.Connect(b, c, Class{Name: "old", Latency: 1, Bandwidth: 0})
	var first, second sim.Time
	f.Send(a, c, 10, func(t sim.Time) { first = t })
	e.At(0.5, func() {
		f.Connect(b, c, Class{Name: "new", Latency: 0.25, Bandwidth: 0})
		f.Send(a, c, 10, func(t sim.Time) { second = t })
	})
	e.Run(10)
	if first != 2 {
		t.Fatalf("in-flight message arrived at %v, want 2 over the old links", first)
	}
	if second != 1.75 {
		t.Fatalf("message sent after Connect arrived at %v, want 1.75 over the new link", second)
	}
}
