package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Membership is the roster of cluster replicas: who exists and how many
// routed queries each is currently serving. It is the router's candidate
// source.
type Membership struct {
	mu      sync.RWMutex
	members map[string]*member
	order   []*member // sorted by ID: deterministic candidate iteration
}

// member pairs a replica with its membership-scoped state. Load is
// tracked here, not on the replica, because it is a property of routing
// (queries this cluster sent there), not of the replica itself.
type member struct {
	r    Replica
	load atomic.Int64
}

// NewMembership returns an empty roster. The roster reports no metrics of
// its own; the argument is ignored.
func NewMembership(*Metrics) *Membership {
	return &Membership{members: make(map[string]*member)}
}

// Add registers a replica. Duplicate IDs are an error: identity is the
// join key between routing decisions, per-peer metrics and fan-out links.
func (ms *Membership) Add(r Replica) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	id := r.ID()
	if _, ok := ms.members[id]; ok {
		return fmt.Errorf("cluster: duplicate replica %q", id)
	}
	m := &member{r: r}
	ms.members[id] = m
	ms.order = append(ms.order, m)
	sort.Slice(ms.order, func(i, j int) bool { return ms.order[i].r.ID() < ms.order[j].r.ID() })
	return nil
}
