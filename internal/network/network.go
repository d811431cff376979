// Package network models the communication fabric between IoT devices, DF
// servers, gateways and the remote datacenter.
//
// Links carry (latency, bandwidth) and serialise transfers FIFO: a message
// occupies the link for size/bandwidth seconds after waiting for earlier
// messages, then arrives latency later (store-and-forward per link). A
// route is the minimum-hop path between two endpoints over usable links,
// found by breadth-first search and cached per endpoint pair; the fabric
// delivers a message by walking its route hop by hop on the simulation
// engine.
//
// Once its route is cached, forwarding a message allocates nothing and
// looks nothing up per hop. The route cache is a table indexed by source
// then destination node; an entry holds the node path, the directed links
// it resolves to and their summed latency, so a send costs two slice
// indexings and PathLatency is that lookup alone.
// Every accepted multi-hop message rides one transfer record from a
// per-fabric free list, reused for each of its hops and scheduled on the
// engine's transient path. Any topology change (Connect, link or node
// failure and repair) empties the cache; Connect also replaces the pair's
// Link structs, so a message already in flight finishes over the links
// its route resolved when it was sent. Scenarios connect at build time,
// before any message moves.
//
// Link classes follow the technologies the paper names (§III-B): building
// Ethernet LAN, fibre to the Qarnot middleware, metro WAN between city
// clusters, Internet to a remote datacenter, and the low-power IoT
// protocols (LoRa, Zigbee) for sensors.
package network

import (
	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/units"
)

// NodeID identifies a network endpoint.
type NodeID int

// Link is a unidirectional channel between two nodes.
type Link struct {
	From, To NodeID
	// Latency is the propagation + protocol delay per message.
	Latency sim.Time
	// Bandwidth is bytes per second; <= 0 means infinite (no serialisation).
	Bandwidth float64
	// Class is the technology class name the link was built from
	// (per-class loss probabilities and fault processes key on it).
	Class string

	busyUntil sim.Time
	bytes     float64
	messages  int64
	down      bool
	// stage is the precomputed span label ("hop:"+Class), so tracing a hop
	// never concatenates strings on the hot path.
	stage string
	// loss is the class's message-loss probability (Fabric.SetLoss),
	// copied onto the link so a hop needs no per-class lookup.
	loss float64
	// epoch increments on every failure, so a message injected before an
	// outage is recognised as dead on arrival even if the link was
	// repaired while it was in flight.
	epoch uint32
}

// transferTime returns when a message of size bytes injected at now departs
// the link (serialisation) and when it arrives at the far end.
func (l *Link) transferTime(now sim.Time, size units.Byte) (depart, arrive sim.Time) {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	ser := sim.Time(0)
	if l.Bandwidth > 0 {
		ser = sim.Time(float64(size) / l.Bandwidth)
	}
	depart = start + ser
	l.busyUntil = depart
	l.bytes += float64(size)
	l.messages++
	return depart, depart + l.Latency
}

// BytesCarried returns the cumulative traffic on the link.
func (l *Link) BytesCarried() float64 { return l.bytes }

// Messages returns the number of messages carried.
func (l *Link) Messages() int64 { return l.messages }

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// Class is a reusable (latency, bandwidth) pair for building links.
type Class struct {
	Name      string
	Latency   sim.Time
	Bandwidth float64 // bytes/s
}

// Technology classes with representative figures.
var (
	// LAN is building-internal gigabit Ethernet.
	LAN = Class{Name: "lan", Latency: 0.0005, Bandwidth: 125e6}
	// Fibre is the optic-fibre uplink of a Q.rad to the operator (§II-B1).
	Fibre = Class{Name: "fibre", Latency: 0.002, Bandwidth: 125e6}
	// Metro is a city-internal WAN hop between buildings/clusters.
	Metro = Class{Name: "metro", Latency: 0.005, Bandwidth: 60e6}
	// Internet is the path to a remote datacenter.
	Internet = Class{Name: "internet", Latency: 0.035, Bandwidth: 12e6}
	// Zigbee is a low-power mesh hop for in-building sensors.
	Zigbee = Class{Name: "zigbee", Latency: 0.015, Bandwidth: 31e3}
	// LoRa is a long-range low-power hop: tiny bandwidth, high latency.
	LoRa = Class{Name: "lora", Latency: 0.4, Bandwidth: 3.4e3}
	// BoilerNet is the 10 Gbps fabric inside an Asperitas boiler (§II-B2).
	BoilerNet = Class{Name: "boilernet", Latency: 0.0001, Bandwidth: 1.25e9}
)

// Fabric is a static-routing network on a simulation engine. It belongs to
// one engine and is not safe for concurrent use.
type Fabric struct {
	engine *sim.Engine
	links  map[[2]NodeID]*Link
	adj    map[NodeID][]NodeID // neighbours in Connect order (determinism)
	// routes caches resolved paths, indexed by source then destination.
	// A source's row is made on its first lookup and costs one pointer per
	// node; a nil entry is not yet resolved and noRoute caches
	// "unreachable".
	routes [][]*route
	names  map[NodeID]string
	nextID NodeID

	// pairs records undirected links in Connect order, so scenario code
	// can enumerate the topology deterministically (fault arming).
	pairs [][2]NodeID
	// nodeDown marks failed endpoints (gateway outages), indexed by
	// NodeID: no message may originate, terminate or transit there.
	nodeDown []bool
	// loss is the per-class message-loss probability; draws come from
	// lossRNG and happen only for classes with a positive probability, so
	// a fabric with no loss configured makes no draws at all.
	loss    map[string]float64
	lossRNG *rng.Stream
	lost    int64
	// free recycles transfer records (see transfer).
	free []*transfer
	// OnLoss, when set, observes every dropped message: random wire loss,
	// messages dead on a failed link, and messages arriving at a failed
	// node. Scenario layers hook it to ledger counters.
	OnLoss func(from, to NodeID, size units.Byte)
	// Tracer, when set, records message and per-hop spans for sends made
	// through SendTraced. Plain Send/SendEx traffic is never spanned, so
	// only flows a caller opted into show up in the trace.
	Tracer *trace.Recorder
}

// route is one cached path: the nodes endpoints included, the directed
// link of each hop, and the links' latency summed in path order.
type route struct {
	path    []NodeID
	links   []*Link
	latency sim.Time
}

// noRoute is the route-cache entry of a pair found unreachable.
var noRoute = &route{}

// NewFabric returns an empty fabric.
func NewFabric(e *sim.Engine) *Fabric {
	return &Fabric{
		engine: e,
		links:  map[[2]NodeID]*Link{},
		adj:    map[NodeID][]NodeID{},
		names:  map[NodeID]string{},
		loss:   map[string]float64{},
	}
}

// AddNode registers a named endpoint and returns its id.
func (f *Fabric) AddNode(name string) NodeID {
	id := f.nextID
	f.nextID++
	f.names[id] = name
	f.nodeDown = append(f.nodeDown, false)
	return id
}

// NodeName returns the registered name of a node.
func (f *Fabric) NodeName(id NodeID) string { return f.names[id] }

// Connect adds a bidirectional link of the given class between a and b.
// Reconnecting an existing pair replaces the links with fresh ones of the
// new class; a message already in flight over the pair finishes on the
// links its route resolved.
func (f *Fabric) Connect(a, b NodeID, c Class) {
	if f.links[[2]NodeID{a, b}] == nil {
		f.adj[a] = append(f.adj[a], b)
		f.adj[b] = append(f.adj[b], a)
		f.pairs = append(f.pairs, [2]NodeID{a, b})
	}
	stage := "hop:" + c.Name
	p := f.loss[c.Name]
	f.links[[2]NodeID{a, b}] = &Link{From: a, To: b, Latency: c.Latency, Bandwidth: c.Bandwidth, Class: c.Name, stage: stage, loss: p}
	f.links[[2]NodeID{b, a}] = &Link{From: b, To: a, Latency: c.Latency, Bandwidth: c.Bandwidth, Class: c.Name, stage: stage, loss: p}
	clear(f.routes) // topology changed; recompute lazily
}

// Link returns the directed link a→b, or nil.
func (f *Fabric) Link(a, b NodeID) *Link { return f.links[[2]NodeID{a, b}] }

// Pairs returns the undirected links in Connect order — the deterministic
// enumeration fault processes arm over.
func (f *Fabric) Pairs() [][2]NodeID { return f.pairs }

// ---------------------------------------------------------------------------
// Fault injection: link failures, node (gateway) failures, wire loss
// ---------------------------------------------------------------------------

// FailLink takes the bidirectional link a↔b out of service. Routes reroute
// around it (BFS skips dead links); messages already on the wire are
// dropped on arrival via the loss callback. Failing an unknown or already
// failed link is a no-op.
func (f *Fabric) FailLink(a, b NodeID) {
	for _, l := range []*Link{f.links[[2]NodeID{a, b}], f.links[[2]NodeID{b, a}]} {
		if l == nil || l.down {
			continue
		}
		l.down = true
		l.epoch++
	}
	clear(f.routes)
}

// RestoreLink returns a failed link to service.
func (f *Fabric) RestoreLink(a, b NodeID) {
	for _, l := range []*Link{f.links[[2]NodeID{a, b}], f.links[[2]NodeID{b, a}]} {
		if l == nil || !l.down {
			continue
		}
		l.down = false
	}
	clear(f.routes)
}

// FailNode severs an endpoint: every route through it dies (a failed
// gateway cuts its whole building off the fabric), sends to or from it
// fail, and in-flight messages addressed to it are dropped on arrival.
// Failing an unknown or already failed node is a no-op.
func (f *Fabric) FailNode(n NodeID) {
	if !f.known(n) || f.nodeDown[n] {
		return
	}
	f.nodeDown[n] = true
	// Messages mid-flight on the node's links die with it.
	for _, nb := range f.adj[n] {
		f.FailLink(n, nb)
	}
	clear(f.routes)
}

// RestoreNode returns a failed endpoint (and its links) to service. Links
// individually failed by FailLink come back too: node repair re-provisions
// the attachment.
func (f *Fabric) RestoreNode(n NodeID) {
	if !f.NodeDown(n) {
		return
	}
	f.nodeDown[n] = false
	for _, nb := range f.adj[n] {
		// Only raise links whose far end is alive.
		if !f.NodeDown(nb) {
			f.RestoreLink(n, nb)
		}
	}
	clear(f.routes)
}

// known reports whether n was returned by AddNode.
func (f *Fabric) known(n NodeID) bool { return n >= 0 && int(n) < len(f.nodeDown) }

// NodeDown reports whether the endpoint is failed.
func (f *Fabric) NodeDown(n NodeID) bool { return f.known(n) && f.nodeDown[n] }

// SetLoss sets the per-message loss probability for every link of the
// named class. Call SetLossRNG first; a fabric with no positive
// probabilities never draws from the stream, preserving determinism of
// loss-free scenarios.
func (f *Fabric) SetLoss(class string, p float64) {
	if p <= 0 {
		p = 0
		delete(f.loss, class)
	} else {
		f.loss[class] = p
	}
	for _, pr := range f.pairs {
		for _, l := range []*Link{f.links[pr], f.links[[2]NodeID{pr[1], pr[0]}]} {
			if l.Class == class {
				l.loss = p
			}
		}
	}
}

// SetLossRNG installs the random stream wire-loss draws come from.
func (f *Fabric) SetLossRNG(s *rng.Stream) { f.lossRNG = s }

// LostMessages returns how many messages the fabric has dropped (wire
// loss, failed links, failed destination nodes).
func (f *Fabric) LostMessages() int64 { return f.lost }

// drop accounts a lost message and notifies the observers.
func (f *Fabric) drop(from, to NodeID, size units.Byte, dropped func()) {
	f.lost++
	if f.OnLoss != nil {
		f.OnLoss(from, to, size)
	}
	if dropped != nil {
		dropped()
	}
}

// usable reports whether a message may be injected into the directed link
// a→b right now.
func (f *Fabric) usable(a, b NodeID) bool {
	if f.NodeDown(a) || f.NodeDown(b) {
		return false
	}
	l := f.links[[2]NodeID{a, b}]
	return l != nil && !l.down
}

// Route computes (and caches) the minimum-hop path from a to b with BFS,
// routing around failed links and failed nodes. It returns nil when b is
// unreachable (including when either endpoint is down). The returned
// slice is the cached path; callers must not modify it.
func (f *Fabric) Route(a, b NodeID) []NodeID {
	if r := f.lookup(a, b); r != nil {
		return r.path
	}
	return nil
}

// lookup returns the cached route a→b, resolving it on a miss; nil when b
// is unreachable, either endpoint is down or was never added.
func (f *Fabric) lookup(a, b NodeID) *route {
	if !f.known(a) || !f.known(b) || f.nodeDown[a] || f.nodeDown[b] {
		return nil
	}
	if int(a) < len(f.routes) {
		if row := f.routes[a]; int(b) < len(row) {
			if r := row[b]; r != nil {
				if r == noRoute {
					return nil
				}
				return r
			}
		}
	}
	return f.miss(a, b)
}

// miss resolves a→b and files it in the route table, growing the table to
// every node added so far.
func (f *Fabric) miss(a, b NodeID) *route {
	n := len(f.nodeDown)
	if len(f.routes) < n {
		f.routes = append(f.routes, make([][]*route, n-len(f.routes))...)
	}
	if row := f.routes[a]; len(row) < n {
		f.routes[a] = append(row, make([]*route, n-len(row))...)
	}
	r := noRoute
	if path := f.bfs(a, b); path != nil {
		r = f.resolve(path)
	}
	f.routes[a][b] = r
	if r == noRoute {
		return nil
	}
	return r
}

// bfs returns the minimum-hop path a→b over the live link set, endpoints
// included, or nil when b is unreachable.
func (f *Fabric) bfs(a, b NodeID) []NodeID {
	if a == b {
		return []NodeID{a}
	}
	prev := map[NodeID]NodeID{a: a}
	frontier := []NodeID{a}
	for len(frontier) > 0 {
		if _, seen := prev[b]; seen {
			break
		}
		var next []NodeID
		for _, n := range frontier {
			for _, nb := range f.adj[n] {
				if _, seen := prev[nb]; seen {
					continue
				}
				if !f.usable(n, nb) {
					continue
				}
				prev[nb] = n
				next = append(next, nb)
			}
		}
		frontier = next
	}
	if _, seen := prev[b]; !seen {
		return nil
	}
	var rev []NodeID
	for n := b; ; n = prev[n] {
		rev = append(rev, n)
		if n == a {
			break
		}
	}
	path := make([]NodeID, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// resolve binds a path to its links. The path must run over existing
// links.
func (f *Fabric) resolve(path []NodeID) *route {
	r := &route{path: path, links: make([]*Link, len(path)-1)}
	for i := range r.links {
		l := f.Link(path[i], path[i+1])
		r.links[i] = l
		r.latency += l.Latency
	}
	return r
}

// PathLatency returns the summed link latency a→b ignoring serialisation,
// or -1 when unreachable. Useful for admission decisions.
func (f *Fabric) PathLatency(a, b NodeID) sim.Time {
	r := f.lookup(a, b)
	if r == nil {
		return -1
	}
	return r.latency
}

// Send delivers a message of the given size from a to b, invoking deliver
// with the arrival time. It walks the path hop by hop, modelling per-link
// FIFO serialisation. Returns false (and does not schedule anything) when
// b is unreachable. When the fabric injects faults, an accepted message
// may still die on the wire and deliver will never fire; callers that must
// notice use SendEx.
func (f *Fabric) Send(a, b NodeID, size units.Byte, deliver func(at sim.Time)) bool {
	return f.SendEx(a, b, size, deliver, nil)
}

// SendEx is Send with a loss continuation: dropped (when non-nil) is
// invoked exactly once if the message dies in flight — random wire loss,
// a link that failed under it, or a destination node that failed before
// arrival. Exactly one of deliver and dropped eventually fires for every
// accepted message, which is what lets the middleware keep its
// request-conservation invariant under chaos.
func (f *Fabric) SendEx(a, b NodeID, size units.Byte, deliver func(at sim.Time), dropped func()) bool {
	return f.SendTraced(a, b, size, 0, deliver, dropped)
}

// SendTraced is SendEx with span correlation: when the fabric has a Tracer,
// the whole transfer becomes a "net" span (child of parent, e.g. a request's
// root span) and every hop a "hop:<class>" child, so per-request latency
// decomposes down to individual links in the trace. With no Tracer it is
// exactly SendEx — the span ids stay zero and every span call no-ops.
func (f *Fabric) SendTraced(a, b NodeID, size units.Byte, parent trace.SpanID, deliver func(at sim.Time), dropped func()) bool {
	r := f.lookup(a, b)
	if r == nil {
		if f.Tracer != nil {
			f.Tracer.Instant(f.engine.Now(), "net:unreachable", 0, parent,
				f.names[a]+"→"+f.names[b])
		}
		return false
	}
	if len(r.links) == 0 { // local delivery
		f.engine.AfterTransient(0, func() { deliver(f.engine.Now()) })
		return true
	}
	t := f.newTransfer()
	t.r, t.i, t.size, t.deliver, t.dropped = r, 0, size, deliver, dropped
	if f.Tracer != nil {
		t.msg = f.Tracer.BeginSpan(f.engine.Now(), "net", 0, parent)
	}
	f.hop(t)
	return true
}

// transfer is one accepted multi-hop message in flight. A record comes
// from the fabric's free list when the message is accepted, is reused for
// every hop, and goes back before deliver or dropped runs (both may send
// again). arrive is t.arrived, bound once when the record is created, so
// scheduling a hop allocates nothing.
type transfer struct {
	f       *Fabric
	r       *route
	i       int // index into r.links of the hop in flight
	size    units.Byte
	msg, hs trace.SpanID // transfer and hop spans; 0 when untraced
	lose    bool         // random wire loss drawn at injection
	epoch   uint32       // the link's epoch at injection
	deliver func(at sim.Time)
	dropped func()
	arrive  func()
}

// newTransfer takes a record from the free list, or makes one.
func (f *Fabric) newTransfer() *transfer {
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free = f.free[:n-1]
		return t
	}
	t := &transfer{f: f}
	t.arrive = t.arrived
	return t
}

// release returns t to the free list, dropping its callbacks and route so
// they stay collectable.
func (f *Fabric) release(t *transfer) {
	t.r, t.deliver, t.dropped, t.msg, t.hs = nil, nil, nil, 0, 0
	f.free = append(f.free, t)
}

// dropAt releases t and accounts its message as dropped on hop l.
func (f *Fabric) dropAt(t *transfer, l *Link) {
	size, dropped := t.size, t.dropped
	f.release(t)
	f.drop(l.From, l.To, size, dropped)
}

// hop injects t's message into link t.r.links[t.i] and schedules its
// arrival at the far end.
func (f *Fabric) hop(t *transfer) {
	l := t.r.links[t.i]
	now := f.engine.Now()
	if l.down || f.NodeDown(l.From) || f.NodeDown(l.To) {
		// The path decayed under a multi-hop message: it dies at the dead
		// hop, like a frame forwarded into a downed port.
		if t.msg != 0 {
			f.Tracer.EndSpanDetail(now, t.msg, "lost:dead-hop")
		}
		f.dropAt(t, l)
		return
	}
	// Random wire loss: drawn at injection, manifested at arrival time (a
	// corrupt frame still occupies the pipe).
	t.lose = l.loss > 0 && f.lossRNG != nil && f.lossRNG.Float64() < l.loss
	t.epoch = l.epoch
	_, arrive := l.transferTime(now, t.size)
	if t.msg != 0 {
		t.hs = f.Tracer.BeginSpan(now, l.stage, 0, t.msg)
	}
	f.engine.AtTransient(arrive, t.arrive)
}

// arrived completes the hop in flight: the message dies, is delivered, or
// goes on to the next hop.
func (t *transfer) arrived() {
	f := t.f
	l := t.r.links[t.i]
	now := f.engine.Now()
	// A link that failed while the message was in flight ate it, even if
	// the link was repaired before the arrival instant.
	if t.lose || l.down || l.epoch != t.epoch || f.NodeDown(l.To) {
		if t.msg != 0 {
			f.Tracer.EndSpanDetail(now, t.hs, "lost")
			f.Tracer.EndSpanDetail(now, t.msg, "lost")
		}
		f.dropAt(t, l)
		return
	}
	if t.msg != 0 {
		f.Tracer.EndSpan(now, t.hs)
	}
	if t.i+1 < len(t.r.links) {
		t.i++
		f.hop(t)
		return
	}
	if t.msg != 0 {
		f.Tracer.EndSpanDetail(now, t.msg, "delivered")
	}
	deliver := t.deliver
	f.release(t)
	deliver(now)
}
