package cluster

import "aets/internal/metrics"

// Metrics holds the cluster's routing series.
type Metrics struct {
	// RouteHits counts zero-block admissions: a live replica's visible
	// watermark already satisfied the query timestamp.
	RouteHits *metrics.Counter
	// RouteWaits counts admissions that had to block on the freshest
	// replica because no live replica satisfied the timestamp.
	RouteWaits *metrics.Counter
	// RouteFailovers counts mid-admission re-picks: the chosen replica
	// died (or went unhealthy) before visibility was reached.
	RouteFailovers *metrics.Counter
	// RouteErrors counts admissions that failed outright (no live
	// replicas, or the failover budget was exhausted).
	RouteErrors *metrics.Counter
	// AdmitWait is the distribution of blocked admission waits (the
	// RouteWaits path only; hits never enter it).
	AdmitWait *metrics.Histogram
}

// NewMetrics registers the cluster metrics in r (metrics.Default when
// nil) under their canonical names and returns the handle.
func NewMetrics(r *metrics.Registry) *Metrics {
	if r == nil {
		r = metrics.Default
	}
	return &Metrics{
		RouteHits:      r.Counter("cluster_route_hits"),
		RouteWaits:     r.Counter("cluster_route_waits"),
		RouteFailovers: r.Counter("cluster_route_failovers"),
		RouteErrors:    r.Counter("cluster_route_errors"),
		AdmitWait:      r.Histogram("cluster_admit_wait_seconds"),
	}
}
