package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aets/internal/wal"
)

// ErrNoReplicas is returned by Admit when no live replica exists.
var ErrNoReplicas = errors.New("cluster: no live replicas")

// RouterConfig configures a Router.
type RouterConfig struct {
	// Members is the replica roster. Required.
	Members *Membership
	// Metrics receives the routing counters; nil registers the default
	// names in metrics.Default.
	Metrics *Metrics
	// MaxFailovers bounds mid-admission re-picks after the chosen
	// replica dies; the admission fails once exceeded. Default 8.
	MaxFailovers int
}

// Router implements freshness-aware query admission over a Membership.
//
// The decision rule (per query, given snapshot timestamp qts and table
// set):
//
//  1. qts ≤ 0 ("freshest currently visible") never blocks anywhere:
//     route to the least-loaded live replica and pin the snapshot to its
//     current visible watermark.
//  2. Otherwise prefer a zero-block read: among live replicas whose
//     visible watermark already covers qts, pick the least loaded
//     (cluster_route_hits).
//  3. Only when no live replica satisfies qts, wait on the freshest live
//     replica — the one that will satisfy it soonest
//     (cluster_route_waits). A replica dying mid-wait fails over to a
//     re-pick (cluster_route_failovers) under the MaxFailovers budget.
//
// Load ties rotate round-robin across the tied replicas, so an idle or
// lightly loaded fleet still spreads reads instead of herding every
// query onto one replica; watermark ties (the wait path) break toward
// the smallest replica ID.
type Router struct {
	cfg RouterConfig
	m   *Metrics
	rr  atomic.Uint64
}

// NewRouter returns a Router over the given roster.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Members == nil {
		return nil, fmt.Errorf("cluster: RouterConfig.Members is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	if cfg.MaxFailovers <= 0 {
		cfg.MaxFailovers = 8
	}
	return &Router{cfg: cfg, m: cfg.Metrics}, nil
}

// Admission is one granted routing decision: the chosen replica, the
// pinned snapshot timestamp, and how the decision was reached. The
// caller owns it until Done, which releases the replica's load slot.
type Admission struct {
	// Replica is the chosen target; its visible watermark covered TS at
	// admission time (and watermarks are monotone, so it still does).
	Replica Replica
	// TS is the pinned snapshot timestamp: the query's qts, or the
	// chosen replica's visible watermark when the query asked for
	// "freshest" (qts ≤ 0).
	TS int64
	// Waited reports a blocked admission (the RouteWaits path).
	Waited bool
	// Failovers counts replicas abandoned mid-admission before this one.
	Failovers int

	mem  *member
	done atomic.Bool
}

// Done releases the admission's load slot. Idempotent.
func (a *Admission) Done() {
	if a.mem != nil && a.done.CompareAndSwap(false, true) {
		a.mem.load.Add(-1)
	}
}

// Admit routes one query: it picks a replica per the routing rule,
// blocks only when no live replica already satisfies qts, and returns an
// Admission whose replica's visible watermark is at least the pinned TS
// — never a replica below the query's snapshot. The caller must call
// Done when the query finishes so load balancing sees true in-flight
// counts.
func (r *Router) Admit(qts int64, tables ...wal.TableID) (*Admission, error) {
	failovers := 0
	for {
		m, covered := r.pick(qts)
		if m == nil {
			r.m.RouteErrors.Inc()
			return nil, ErrNoReplicas
		}
		if covered {
			// Zero-block read. A freshest-visible read (qts ≤ 0) is
			// always covered and pins the replica's current watermark.
			ts := qts
			if qts <= 0 {
				ts = m.r.VisibleTS()
			}
			m.load.Add(1)
			r.m.RouteHits.Inc()
			return &Admission{Replica: m.r, TS: ts, Failovers: failovers, mem: m}, nil
		}

		// Wait path: the freshest live replica reaches qts soonest.
		m.load.Add(1)
		r.m.RouteWaits.Inc()
		t0 := time.Now()
		ok := m.r.WaitVisible(qts, tables)
		r.m.AdmitWait.Observe(time.Since(t0))
		if ok && m.r.Healthy() {
			return &Admission{Replica: m.r, TS: qts, Waited: true, Failovers: failovers, mem: m}, nil
		}
		// The replica died mid-wait: fail over.
		m.load.Add(-1)
		r.m.RouteFailovers.Inc()
		failovers++
		if failovers > r.cfg.MaxFailovers {
			r.m.RouteErrors.Inc()
			return nil, fmt.Errorf("cluster: admission failed after %d failovers (qts %d)", failovers, qts)
		}
	}
}

// pick walks the roster in ID order under its read lock, allocating
// nothing. Among live replicas covering qts (all of them when qts ≤ 0)
// it returns the least loaded with covered = true; load ties rotate
// round-robin (r.rr), so equal-load replicas — the common case on an
// idle fleet, where every load is zero — share the traffic instead of
// the smallest ID absorbing all of it. With none covering qts it returns
// the freshest live replica (ties to the smallest ID) to wait on, and
// nil when no replica is live.
func (r *Router) pick(qts int64) (m *member, covered bool) {
	ms := r.cfg.Members
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	var fresh, least *member
	var freshTS, leastLoad int64
	ties := 0
	for _, c := range ms.order {
		if !c.r.Healthy() {
			continue
		}
		ts := c.r.VisibleTS()
		if fresh == nil || ts > freshTS {
			fresh, freshTS = c, ts
		}
		if ts < qts {
			continue
		}
		switch l := c.load.Load(); {
		case least == nil || l < leastLoad:
			least, leastLoad, ties = c, l, 1
		case l == leastLoad:
			ties++
		}
	}
	if least == nil {
		return fresh, false
	}
	if ties > 1 {
		// Second pass for the k-th tie. Loads and health may have moved
		// since the first; if the tie set shrank, the first pass's pick
		// stands.
		k := r.rr.Add(1) % uint64(ties)
		for _, c := range ms.order {
			if c.load.Load() != leastLoad || !c.r.Healthy() || c.r.VisibleTS() < qts {
				continue
			}
			if k == 0 {
				return c, true
			}
			k--
		}
	}
	return least, true
}
