package network

import (
	"testing"
	"testing/quick"

	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/units"
)

// diamond builds a -- (b | c) -- d: two disjoint paths between a and d.
func diamond(e *sim.Engine) (*Fabric, NodeID, NodeID, NodeID, NodeID) {
	f := NewFabric(e)
	a, b, c, d := f.AddNode("a"), f.AddNode("b"), f.AddNode("c"), f.AddNode("d")
	cl := Class{Name: "t", Latency: 0.001, Bandwidth: 0}
	f.Connect(a, b, cl)
	f.Connect(b, d, cl)
	f.Connect(a, c, cl)
	f.Connect(c, d, cl)
	return f, a, b, c, d
}

func TestFailLinkReroutes(t *testing.T) {
	e := sim.New()
	f, a, b, c, d := diamond(e)
	if got := f.Route(a, d); len(got) != 3 || got[1] != b {
		t.Fatalf("initial route = %v, want via b", got)
	}
	f.FailLink(a, b)
	if got := f.Route(a, d); len(got) != 3 || got[1] != c {
		t.Fatalf("route after failure = %v, want via c", got)
	}
	delivered := false
	if !f.SendEx(a, d, 100, func(sim.Time) { delivered = true }, func() { t.Fatal("dropped") }) {
		t.Fatal("send refused despite surviving path")
	}
	e.Run(1)
	if !delivered {
		t.Fatal("message not delivered around the dead link")
	}
	f.RestoreLink(a, b)
	if got := f.Route(a, d); got[1] != b {
		t.Fatalf("route after repair = %v, want via b again", got)
	}
}

func TestFailLinkDropsInFlight(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, b := f.AddNode("a"), f.AddNode("b")
	f.Connect(a, b, Class{Name: "t", Latency: 0.010, Bandwidth: 0})
	delivered, dropped := false, false
	f.SendEx(a, b, 100, func(sim.Time) { delivered = true }, func() { dropped = true })
	// Fail mid-flight; even repairing before arrival must not resurrect
	// the message (the epoch counter catches fail-then-restore).
	e.At(0.002, func() { f.FailLink(a, b) })
	e.At(0.004, func() { f.RestoreLink(a, b) })
	e.Run(1)
	if delivered || !dropped {
		t.Fatalf("delivered=%v dropped=%v, want in-flight message dead", delivered, dropped)
	}
	if f.LostMessages() != 1 {
		t.Fatalf("LostMessages = %d, want 1", f.LostMessages())
	}
}

func TestFailNodeSevers(t *testing.T) {
	e := sim.New()
	f, a, b, _, d := diamond(e)
	f.FailNode(d)
	if f.Route(a, d) != nil {
		t.Fatal("route to failed node should be nil")
	}
	if f.Route(a, b) == nil {
		t.Fatal("unrelated route severed")
	}
	if f.SendEx(a, d, 100, func(sim.Time) {}, func() {}) {
		t.Fatal("send to failed node accepted")
	}
	f.RestoreNode(d)
	if f.Route(a, d) == nil {
		t.Fatal("route not restored with the node")
	}
	deliv := false
	f.SendEx(a, d, 100, func(sim.Time) { deliv = true }, nil)
	e.Run(1)
	if !deliv {
		t.Fatal("message not delivered after node repair")
	}
}

func TestFailNodeDropsTransit(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, g, d := f.AddNode("a"), f.AddNode("g"), f.AddNode("d")
	cl := Class{Name: "t", Latency: 0.010, Bandwidth: 0}
	f.Connect(a, g, cl)
	f.Connect(g, d, cl)
	dropped := false
	f.SendEx(a, d, 100, func(sim.Time) { t.Fatal("delivered through dead transit") }, func() { dropped = true })
	e.At(0.005, func() { f.FailNode(g) }) // message is on hop a→g
	e.Run(1)
	if !dropped {
		t.Fatal("transit message not dropped at failed node")
	}
}

func TestRandomLossPerClass(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, b := f.AddNode("a"), f.AddNode("b")
	f.Connect(a, b, Class{Name: "lossy", Latency: 0.001, Bandwidth: 0})
	f.SetLoss("lossy", 0.5)
	f.SetLossRNG(rng.New(7))
	delivered, dropped := 0, 0
	for i := 0; i < 1000; i++ {
		f.SendEx(a, b, 10, func(sim.Time) { delivered++ }, func() { dropped++ })
	}
	e.Run(10)
	if delivered+dropped != 1000 {
		t.Fatalf("conservation broken: %d delivered + %d dropped != 1000", delivered, dropped)
	}
	if dropped < 400 || dropped > 600 {
		t.Fatalf("dropped %d of 1000 at p=0.5; loss draw broken", dropped)
	}
	if f.LostMessages() != int64(dropped) {
		t.Fatalf("LostMessages = %d, want %d", f.LostMessages(), dropped)
	}
	// Clearing the probability stops the draws entirely.
	f.SetLoss("lossy", 0)
	ok := 0
	for i := 0; i < 100; i++ {
		f.SendEx(a, b, 10, func(sim.Time) { ok++ }, func() { t.Fatal("dropped with loss off") })
	}
	e.Run(20)
	if ok != 100 {
		t.Fatalf("%d of 100 delivered after clearing loss", ok)
	}
}

func TestOnLossCallback(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	a, b := f.AddNode("a"), f.AddNode("b")
	f.Connect(a, b, Class{Name: "t", Latency: 0.010, Bandwidth: 0})
	var seen int
	f.OnLoss = func(from, to NodeID, size units.Byte) { seen++ }
	f.SendEx(a, b, 100, func(sim.Time) {}, func() {})
	e.At(0.001, func() { f.FailLink(a, b) })
	e.Run(1)
	if seen != 1 {
		t.Fatalf("OnLoss fired %d times, want 1", seen)
	}
}

// TestConservationUnderChurn is the pooled-record property test: many
// overlapping multi-hop SendEx calls on a lossy fabric while links and
// nodes fail and recover at random times, with some deliver and dropped
// callbacks sending again. Every accepted message must fire exactly one of
// deliver or dropped, exactly once; a refused one neither; and
// LostMessages must equal the drops.
func TestConservationUnderChurn(t *testing.T) {
	prop := func(seed uint64) bool {
		e := sim.New()
		r := rng.New(seed)
		f := NewFabric(e)
		const n = 9
		nodes := make([]NodeID, n)
		for i := range nodes {
			nodes[i] = f.AddNode("n")
		}
		// A ring with chords: multi-hop paths and detours around failures.
		lossy := Class{Name: "lossy", Latency: 0.002, Bandwidth: 1e6}
		for i := 0; i < n; i++ {
			f.Connect(nodes[i], nodes[(i+1)%n], lossy)
		}
		for i := 0; i < n; i += 3 {
			f.Connect(nodes[i], nodes[(i+4)%n], LAN)
		}
		f.SetLossRNG(r.Fork(1))
		f.SetLoss("lossy", 0.1)
		onLoss := 0
		f.OnLoss = func(NodeID, NodeID, units.Byte) { onLoss++ }

		var delivered, dropped []int // per accepted message
		refused, drops := 0, 0
		var send func(depth int)
		send = func(depth int) {
			id := len(delivered)
			a, b := nodes[r.Intn(n)], nodes[r.Intn(n)]
			ok := f.SendEx(a, b, units.Byte(1+r.Intn(20000)), func(sim.Time) {
				delivered[id]++
				if depth < 3 && r.Bool(0.3) {
					send(depth + 1)
				}
			}, func() {
				dropped[id]++
				drops++
				if depth < 3 && r.Bool(0.5) {
					send(depth + 1)
				}
			})
			if ok {
				delivered = append(delivered, 0)
				dropped = append(dropped, 0)
			} else {
				refused++
			}
		}
		const horizon = 2.0
		for i := 0; i < 400; i++ {
			e.AtTransient(r.Uniform(0, horizon), func() { send(0) })
		}
		for i := 0; i < 40; i++ {
			at := r.Uniform(0, horizon)
			switch k := r.Intn(4); k {
			case 0, 1:
				p := f.Pairs()[r.Intn(len(f.Pairs()))]
				if k == 0 {
					e.AtTransient(at, func() { f.FailLink(p[0], p[1]) })
				} else {
					e.AtTransient(at, func() { f.RestoreLink(p[0], p[1]) })
				}
			case 2:
				nd := nodes[r.Intn(n)]
				e.AtTransient(at, func() { f.FailNode(nd) })
			default:
				nd := nodes[r.Intn(n)]
				e.AtTransient(at, func() { f.RestoreNode(nd) })
			}
		}
		e.Run(1e6)
		for id := range delivered {
			if delivered[id]+dropped[id] != 1 {
				t.Logf("seed %d: message %d delivered %d, dropped %d times", seed, id, delivered[id], dropped[id])
				return false
			}
		}
		if f.LostMessages() != int64(drops) || onLoss != drops {
			t.Logf("seed %d: LostMessages %d, OnLoss %d, drops %d", seed, f.LostMessages(), onLoss, drops)
			return false
		}
		if drops == 0 || refused == 0 || len(delivered) == drops {
			t.Logf("seed %d: degenerate run: %d accepted, %d dropped, %d refused", seed, len(delivered), drops, refused)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
