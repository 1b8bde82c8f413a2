package cluster

import (
	"fmt"
	"math/rand"
	"sync"

	"aets/internal/wal"
)

// SimReplica is a scripted replica for the deterministic cluster
// simulator: watermarks advance only when told to, WaitVisible blocks on
// a condition variable, and health is a switch. It satisfies Replica but
// not Snapshotter — the simulator tests routing decisions, not reads.
type SimReplica struct {
	id string

	mu      sync.Mutex
	cond    *sync.Cond
	visible int64
	primary int64
	healthy bool
}

// NewSimReplica returns a healthy replica at watermark 0.
func NewSimReplica(id string) *SimReplica {
	r := &SimReplica{id: id, healthy: true}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// ID implements Replica.
func (r *SimReplica) ID() string { return r.id }

// VisibleTS implements Replica.
func (r *SimReplica) VisibleTS() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.visible
}

// PrimaryTS is the primary clock the replica last replayed toward;
// PrimaryTS-VisibleTS is its replay lag.
func (r *SimReplica) PrimaryTS() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// Healthy implements Replica.
func (r *SimReplica) Healthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy
}

// WaitVisible implements Replica: block until the watermark covers qts
// (true) or the replica is killed (false). No polling — the simulator's
// advances broadcast.
func (r *SimReplica) WaitVisible(qts int64, tables []wal.TableID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.visible < qts && r.healthy {
		r.cond.Wait()
	}
	return r.visible >= qts
}

// AdvanceTo raises the visible watermark (monotone; lower values are
// ignored) and wakes waiters.
func (r *SimReplica) AdvanceTo(ts int64) {
	r.mu.Lock()
	if ts > r.visible {
		r.visible = ts
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// SetPrimaryTS raises the primary watermark (monotone).
func (r *SimReplica) SetPrimaryTS(ts int64) {
	r.mu.Lock()
	if ts > r.primary {
		r.primary = ts
	}
	r.mu.Unlock()
}

// SetHealthy flips liveness; killing a replica releases its waiters with
// ok=false so the router fails over.
func (r *SimReplica) SetHealthy(ok bool) {
	r.mu.Lock()
	r.healthy = ok
	r.cond.Broadcast()
	r.mu.Unlock()
}

// SimConfig configures a Simulator.
type SimConfig struct {
	// Replicas is the topology size. Required (≥ 1).
	Replicas int
	// Seed drives the per-tick lag jitter; a given seed replays the
	// exact same lag trajectory. Default 1.
	Seed int64
	// MaxLag is the slowest replica's mean replay lag in commit-ts
	// units. Replica lag is skewed linearly across the topology:
	// replica 0 tracks the primary exactly, replica N-1 trails by
	// ~MaxLag — the "one fresh replica, many stale ones" shape a real
	// read fleet settles into. Default 1000.
	MaxLag int64
}

// Simulator drives a deterministic multi-replica topology: a virtual
// primary commit clock and N SimReplicas whose watermarks trail it by
// seeded, skewed lags. It owns a Membership ready to hand to a Router,
// so routing behaviour at 8–64 replicas is testable in microseconds on
// CI hardware. All mutation happens on the caller's goroutine (Tick,
// Kill, Revive); queries race against it from any number of goroutines —
// exactly the contention the router must survive.
type Simulator struct {
	cfg      SimConfig
	rng      *rand.Rand
	replicas []*SimReplica
	members  *Membership

	mu  sync.Mutex
	now int64
}

// NewSimulator builds the topology and registers every replica in a
// fresh Membership.
func NewSimulator(cfg SimConfig) (*Simulator, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: SimConfig.Replicas must be ≥ 1")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxLag <= 0 {
		cfg.MaxLag = 1000
	}
	s := &Simulator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		members: NewMembership(nil),
	}
	for i := 0; i < cfg.Replicas; i++ {
		r := NewSimReplica(fmt.Sprintf("sim-%03d", i))
		s.replicas = append(s.replicas, r)
		if err := s.members.Add(r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Members returns the simulator's membership, ready for a Router.
func (s *Simulator) Members() *Membership { return s.members }

// Replicas returns the topology in index order (index 0 is the
// freshest).
func (s *Simulator) Replicas() []*SimReplica { return s.replicas }

// Now returns the virtual primary commit clock.
func (s *Simulator) Now() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Tick advances the primary clock by dt and replays every live replica
// toward it under its skewed lag: replica i trails the clock by a value
// drawn (deterministically from the seed) around MaxLag·i/(N-1).
// Watermarks stay monotone — a draw that would move a replica backwards
// leaves it where it is.
func (s *Simulator) Tick(dt int64) {
	s.mu.Lock()
	s.now += dt
	now := s.now
	n := len(s.replicas)
	for i, r := range s.replicas {
		if !r.Healthy() {
			continue // dead replicas do not replay
		}
		var mean int64
		if n > 1 {
			mean = s.cfg.MaxLag * int64(i) / int64(n-1)
		}
		// Jitter: lag ∈ [mean/2, 3·mean/2]; replica 0 has none.
		lag := mean
		if mean > 0 {
			lag = mean/2 + s.rng.Int63n(mean+1)
		}
		r.SetPrimaryTS(now)
		if vis := now - lag; vis > 0 {
			r.AdvanceTo(vis)
		}
	}
	s.mu.Unlock()
}

// Kill marks replica i dead: it stops advancing, reports unhealthy, and
// releases any admission waiting on it.
func (s *Simulator) Kill(i int) { s.replicas[i].SetHealthy(false) }

// Revive brings replica i back; its watermark resumes from where it
// stopped on the next Tick.
func (s *Simulator) Revive(i int) { s.replicas[i].SetHealthy(true) }
