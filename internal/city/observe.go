// Observability wiring for a built city: one call turns on causal span
// tracing across the middleware, network fabric and machine fleet, and one
// call builds the labeled metrics registry that the df3d daemon serves as
// Prometheus text exposition.
package city

import (
	"strconv"

	"df3/internal/metrics"
	"df3/internal/network"
	"df3/internal/trace"
)

// machineTraceBit offsets machine window-span trace ids into their own
// space so they never collide with edge-request or DCC-job trace ids.
const machineTraceBit = uint64(1) << 41

// EnableTracing installs rec on every traced layer: the middleware (request
// and job lifecycle spans), the network fabric (per-message and per-hop
// spans) and every machine (offline and derate window spans). Call it once,
// before Run; tracing is pure observation and never perturbs the
// simulation's event order or RNG draws.
func (c *City) EnableTracing(rec *trace.Recorder) {
	c.MW.Tracer = rec
	c.Net.Tracer = rec
	tag := uint64(1)
	for _, m := range c.Fleet.Machines {
		m.Tracer = rec
		m.TraceTag = machineTraceBit | tag
		tag++
	}
	for _, m := range c.DCFleet.Machines {
		m.Tracer = rec
		m.TraceTag = machineTraceBit | tag
		tag++
	}
}

// Observability builds (once) the city's labeled metrics registry: kernel,
// network, middleware-ledger, city-fault, fleet and datacenter-pool
// instruments, all read-through — values are computed at scrape time from
// the live simulation state, so registering costs the hot paths nothing.
func (c *City) Observability() *metrics.Registry {
	if c.registry != nil {
		return c.registry
	}
	r := metrics.NewRegistry()
	c.registry = r

	// Kernel.
	r.GaugeFunc("df3_sim_time_seconds", "current simulated time", nil,
		func() float64 { return c.Engine.Now() })
	r.CounterFunc("df3_kernel_events_fired_total", "events executed by the kernel", nil,
		func() int64 { return int64(c.Engine.Fired()) })
	r.GaugeFunc("df3_kernel_events_pending", "events currently scheduled", nil,
		func() float64 { return float64(c.Engine.Pending()) })

	// Network: fabric-level loss plus per-class link traffic.
	r.CounterFunc("df3_net_messages_lost_total", "messages dropped by the fabric", nil,
		c.Net.LostMessages)
	for _, class := range c.linkClasses() {
		class := class
		r.CounterFunc("df3_net_link_messages_total", "messages carried, by link class",
			metrics.Labels{"class": class}, func() int64 {
				var n int64
				c.eachLink(class, func(l *network.Link) { n += l.Messages() })
				return n
			})
		r.GaugeFunc("df3_net_link_bytes_total", "bytes carried, by link class",
			metrics.Labels{"class": class}, func() float64 {
				var n float64
				c.eachLink(class, func(l *network.Link) { n += l.BytesCarried() })
				return n
			})
	}

	// Middleware edge ledger.
	edge := &c.MW.Edge
	r.CounterFunc("df3_edge_submitted_total", "edge requests injected", nil, edge.Submitted.Value)
	r.CounterFunc("df3_edge_served_total", "edge requests completed", nil, edge.Served.Value)
	r.CounterFunc("df3_edge_rejected_total", "edge requests dropped", nil, edge.Rejected.Value)
	r.CounterFunc("df3_edge_missed_total", "served past their deadline", nil, edge.Missed.Value)
	r.CounterFunc("df3_edge_retries_total", "timeout/loss re-submissions", nil, edge.Retries.Value)
	r.CounterFunc("df3_edge_timedout_total", "response-timeout expiries", nil, edge.TimedOut.Value)
	r.CounterFunc("df3_edge_preemptions_total", "DCC tasks evicted for edge work", nil, edge.Preemptions.Value)
	r.CounterFunc("df3_edge_direct_fallbacks_total", "direct requests rerouted via gateway", nil, edge.DirectFallbacks.Value)
	r.CounterFunc("df3_edge_offloads_total", "offload actions, by direction",
		metrics.Labels{"direction": "horizontal"}, edge.Horizontal.Value)
	r.CounterFunc("df3_edge_offloads_total", "",
		metrics.Labels{"direction": "vertical"}, edge.Vertical.Value)
	for _, q := range []struct {
		name string
		p    float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
		q := q
		r.GaugeFunc("df3_edge_latency_seconds", "end-to-end latency quantiles of served requests",
			metrics.Labels{"quantile": q.name}, func() float64 { return edge.Latency.Quantile(q.p) })
	}

	// Middleware DCC ledger.
	dcc := &c.MW.DCC
	r.CounterFunc("df3_dcc_jobs_submitted_total", "non-empty batch jobs injected", nil, dcc.JobsSubmitted.Value)
	r.CounterFunc("df3_dcc_jobs_done_total", "batch jobs completed", nil, dcc.JobsDone.Value)
	r.CounterFunc("df3_dcc_jobs_lost_total", "jobs lost past the submit-retry budget", nil, dcc.JobsLost.Value)
	r.CounterFunc("df3_dcc_submit_retries_total", "payload re-submissions", nil, dcc.SubmitRetries.Value)
	r.CounterFunc("df3_dcc_tasks_done_total", "batch tasks completed", nil, dcc.TasksDone.Value)
	r.GaugeFunc("df3_dcc_core_seconds_total", "completed work in core-seconds", nil,
		func() float64 { return dcc.WorkDone })

	// City fault ledger.
	r.CounterFunc("df3_faults_machine_outages_total", "machine failures injected", nil, c.Outages.Value)
	r.CounterFunc("df3_faults_link_outages_total", "link failures injected", nil, c.LinkOutages.Value)
	r.CounterFunc("df3_faults_gateway_outages_total", "building gateway failures injected", nil, c.GatewayOutages.Value)
	r.CounterFunc("df3_faults_messages_lost_total", "messages lost to chaos (city ledger)", nil, c.MessagesLost.Value)

	// Fleet capacity and energy efficiency.
	for _, fl := range []struct {
		name string
		cap  func() float64
	}{
		{"all", c.Fleet.Capacity},
		{"heater", c.HeaterFleet.Capacity},
		{"boiler", c.BoilerFleet.Capacity},
		{"datacenter", c.DCFleet.Capacity},
	} {
		r.GaugeFunc("df3_fleet_capacity_cores", "live capacity in core-equivalents, by fleet",
			metrics.Labels{"fleet": fl.name}, fl.cap)
	}
	r.GaugeFunc("df3_fleet_pue", "power usage effectiveness of the DF fleet", nil,
		func() float64 { return c.Fleet.PUE(c.Engine.Now()) })

	// Per-cluster queue depths.
	for _, cl := range c.MW.Clusters() {
		cl := cl
		labels := metrics.Labels{"cluster": strconv.Itoa(cl.ID)}
		r.GaugeFunc("df3_cluster_edge_queue", "edge queue depth, by cluster", labels,
			func() float64 { return float64(cl.EdgeQueueLen()) })
		r.GaugeFunc("df3_cluster_dcc_queue", "DCC queue depth, by cluster", labels,
			func() float64 { return float64(cl.DCCQueueLen()) })
	}

	// Datacenter scheduling pool.
	if pool := c.MW.DatacenterPool(); pool != nil {
		r.CounterFunc("df3_dc_pool_dropped_total", "datacenter submissions dropped", nil, pool.Dropped)
		r.GaugeFunc("df3_dc_pool_free_slots", "free datacenter slots", nil,
			func() float64 { return float64(pool.FreeSlots()) })
		r.GaugeFunc("df3_dc_pool_wait_seconds_mean", "mean queue wait at the datacenter", nil,
			func() float64 { return pool.WaitStats().Mean() })
	}

	// Trace recorder health (only present when tracing is on).
	if rec := c.MW.Tracer; rec != nil {
		r.CounterFunc("df3_trace_dropped_spans_total", "spans evicted from the trace ring", nil, rec.DroppedSpans)
		r.GaugeFunc("df3_trace_open_spans", "spans begun but not yet ended", nil,
			func() float64 { return float64(len(rec.OpenSpans())) })
	}
	return r
}

// eachLink visits both directed links of every connected pair whose class
// matches.
func (c *City) eachLink(class string, visit func(*network.Link)) {
	for _, p := range c.Net.Pairs() {
		for _, l := range [2]*network.Link{c.Net.Link(p[0], p[1]), c.Net.Link(p[1], p[0])} {
			if l != nil && l.Class == class {
				visit(l)
			}
		}
	}
}

// linkClasses returns the distinct link classes in wiring order.
func (c *City) linkClasses() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range c.Net.Pairs() {
		l := c.Net.Link(p[0], p[1])
		if l == nil || seen[l.Class] {
			continue
		}
		seen[l.Class] = true
		out = append(out, l.Class)
	}
	return out
}
