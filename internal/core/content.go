package core

import (
	"df3/internal/cache"
	"df3/internal/metrics"
	"df3/internal/network"
	"df3/internal/sim"
	"df3/internal/units"
)

// Content delivery is the §II-A "low-bandwidth neighborhood application"
// family — map serving, Internet television — running on the edge
// gateways: each cluster's gateway keeps an LRU cache of the content its
// neighbourhood requests; hits are served over the building LAN, misses
// fetch from the origin behind the datacenter node and populate the cache.
// This is the paper's §V observation that CDN infrastructure competes for
// the same role, implemented on DF3's own gateways.

// ContentStats aggregates the content flow's outcomes.
type ContentStats struct {
	// Latency samples end-to-end response times.
	Latency metrics.Sample
	// Served counts completed requests; Failed counts unreachable paths.
	Served metrics.Counter
	Failed metrics.Counter
	// OriginBytes accumulates backhaul traffic to the origin.
	OriginBytes float64
	// CacheHits and CacheMisses aggregate across clusters.
	CacheHits, CacheMisses metrics.Counter
}

// HitRate returns the platform-wide cache hit rate.
func (s *ContentStats) HitRate() float64 {
	return metrics.Rate(s.CacheHits.Value(), s.CacheHits.Value()+s.CacheMisses.Value())
}

// EnableContentCache gives every cluster's edge gateway a content cache of
// the given byte capacity (zero = pass-through, the baseline arm) and
// installs the origin node content is fetched from on miss.
func (mw *Middleware) EnableContentCache(capacity units.Byte, origin network.NodeID) {
	mw.contentOrigin = origin
	for _, c := range mw.clusters {
		c.content = cache.New(capacity)
	}
}

// SubmitContent requests one content object (a map tile, a TV segment) of
// the given id and size from a device. The response returns over the LAN
// on a hit, or across the Internet once per miss.
func (mw *Middleware) SubmitContent(c *Cluster, device network.NodeID, id uint64, size units.Byte) {
	if c.content == nil {
		mw.Content.Failed.Inc()
		return
	}
	start := mw.Engine.Now()
	finish := func(sim.Time) {
		mw.Content.Latency.Observe(mw.Engine.Now() - start)
		mw.Content.Served.Inc()
	}
	// Device → gateway request (small).
	ok := mw.Net.Send(device, c.EdgeGW, 400, func(sim.Time) {
		mw.Engine.AfterTransient(mw.cfg.GatewayOverhead, func() {
			if _, hit := c.content.Get(id); hit {
				mw.Content.CacheHits.Inc()
				if !mw.Net.Send(c.EdgeGW, device, size, finish) {
					mw.Content.Failed.Inc()
				}
				return
			}
			mw.Content.CacheMisses.Inc()
			// Fetch from the origin: request out, object back, then
			// cache and respond.
			ok := mw.Net.Send(c.EdgeGW, mw.contentOrigin, 400, func(sim.Time) {
				ok := mw.Net.Send(mw.contentOrigin, c.EdgeGW, size, func(sim.Time) {
					mw.Content.OriginBytes += float64(size)
					c.content.Put(id, size)
					if !mw.Net.Send(c.EdgeGW, device, size, finish) {
						mw.Content.Failed.Inc()
					}
				})
				if !ok {
					mw.Content.Failed.Inc()
				}
			})
			if !ok {
				mw.Content.Failed.Inc()
			}
		})
	})
	if !ok {
		mw.Content.Failed.Inc()
	}
}

// ContentCacheOf returns a cluster's content cache (nil when disabled).
func (c *Cluster) ContentCacheOf() *cache.LRU { return c.content }
