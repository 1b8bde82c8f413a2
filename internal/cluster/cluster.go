// Package cluster generalizes the one-primary/one-backup replication
// pair into a multi-replica topology. It has three parts:
//
//   - Fan-out shipping (Fanout): one epoch stream feeding N downstream
//     replicas through independent ship.Senders — per-peer cursors,
//     windows and reconnect state, so a slow or dead replica never
//     stalls its siblings.
//
//   - Membership: the roster of replicas and their in-flight query load.
//
//   - Freshness-aware routing (Router): given a query's snapshot
//     timestamp and table set, pick the least-loaded live replica whose
//     visible watermark already satisfies the timestamp (a zero-block
//     read), and only when none qualifies wait on the freshest replica —
//     the paper's Algorithm 3 admission, lifted from a per-node block to
//     a cluster routing input.
//
// The deterministic simulator (Simulator, SimReplica) scripts topologies
// of tens of replicas with skewed lag distributions so routing invariants
// are testable at scales CI hardware cannot run for real.
package cluster

import (
	"fmt"

	"aets/internal/query"
	"aets/internal/recovery"
	"aets/internal/wal"
)

// Replica is the routing view of one cluster member: identity, freshness
// watermarks, liveness, and bounded visibility waiting. *SupervisorReplica
// (a live, crash-recovering replica) and *SimReplica (the simulator's)
// satisfy it.
type Replica interface {
	// ID names the replica; unique within a Membership.
	ID() string
	// VisibleTS is the replica's global visible watermark: every commit
	// at or below it is readable (Algorithm 3's global timestamp).
	VisibleTS() int64
	// Healthy reports whether the replica can serve queries. Routing
	// skips unhealthy replicas.
	Healthy() bool
	// WaitVisible blocks until the replica's global visible watermark
	// (VisibleTS) reaches qts, returning true, or until the replica stops
	// being a viable target (unhealthy), returning false so the router
	// can fail over. Unlike the node-level Algorithm 3 wait it must not
	// block forever on a dead replica. tables is the query's footprint;
	// an implementation may ignore it. The contract is the global
	// watermark, not the footprint's groups, because an Admission
	// promises VisibleTS() ≥ TS, which per-group watermarks covering qts
	// do not imply.
	WaitVisible(qts int64, tables []wal.TableID) bool
}

// Snapshotter is the query surface of a replica that can actually serve
// reads (*SupervisorReplica; the simulator's replicas cannot). The router's
// Query path requires it.
type Snapshotter interface {
	Query(qts int64, tables ...wal.TableID) *query.Snapshot
}

// SupervisorReplica adapts a recovery.Supervisor — a crash-recovering
// replica whose inner node is rebuilt across failures — to the Replica
// interface.
type SupervisorReplica struct {
	id  string
	sup *recovery.Supervisor
}

// NewSupervisorReplica wraps a supervisor under the given replica ID.
func NewSupervisorReplica(id string, sup *recovery.Supervisor) *SupervisorReplica {
	return &SupervisorReplica{id: id, sup: sup}
}

// ID implements Replica.
func (r *SupervisorReplica) ID() string { return r.id }

// VisibleTS implements Replica (0 while the supervisor has no live node,
// e.g. mid-rebuild). Like Healthy and WaitVisible, it never takes the
// supervisor's lock.
func (r *SupervisorReplica) VisibleTS() int64 {
	if n := r.sup.Node(); n != nil {
		return n.VisibleTS()
	}
	return 0
}

// Healthy implements Replica: routable while the supervisor has a live
// node and has not exhausted its retry budget. Degraded (quarantined
// epochs) still serves — same policy as /healthz.
func (r *SupervisorReplica) Healthy() bool {
	return r.sup.State() != recovery.StateFatal && r.sup.Node() != nil
}

// WaitVisible implements Replica: it parks on the current node until
// that node's replayer publishes a global watermark covering qts. A
// node closed mid-wait releases it; if the supervisor has already
// installed a successor (a snapshot restore swaps before it closes),
// the wait moves there, and otherwise — down, rebuilding or fatal — it
// returns false so the router fails over.
func (r *SupervisorReplica) WaitVisible(qts int64, _ []wal.TableID) bool {
	n := r.sup.Node()
	for n != nil && r.sup.State() != recovery.StateFatal {
		if n.WaitVisibleTS(qts) {
			return true
		}
		next := r.sup.Node()
		if next == n {
			return false
		}
		n = next
	}
	return false
}

// Query implements Snapshotter. Call it after a successful admission.
// If the node went down since (the supervisor closed or is rebuilding),
// it returns a snapshot whose every read fails.
func (r *SupervisorReplica) Query(qts int64, tables ...wal.TableID) *query.Snapshot {
	n := r.sup.Node()
	if n == nil {
		return query.Failed(fmt.Errorf("cluster: replica %s has no live node", r.id))
	}
	return n.Query(qts, tables...)
}
