// Deterministic cluster-simulator tests: routing invariants at
// topologies (8–64 replicas, skewed lag) that CI hardware could never
// run as real processes. Run under -race via `make race`.
package cluster

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"aets/internal/metrics"
)

// TestSimRouterInvariantUnderConcurrency is the core acceptance
// invariant: with replicas advancing concurrently under skewed lag and
// random kills, the router NEVER returns an admission whose replica's
// visible watermark is below the pinned snapshot timestamp.
func TestSimRouterInvariantUnderConcurrency(t *testing.T) {
	for _, n := range []int{8, 16, 64} {
		n := n
		t.Run(string(rune('0'+n/10))+string(rune('0'+n%10))+"replicas", func(t *testing.T) {
			t.Parallel()
			m := NewMetrics(metrics.NewRegistry())
			sim, err := NewSimulator(SimConfig{Replicas: n, Seed: int64(n), MaxLag: 2000})
			if err != nil {
				t.Fatal(err)
			}
			router, err := NewRouter(RouterConfig{Members: sim.Members(), Metrics: m, MaxFailovers: n})
			if err != nil {
				t.Fatal(err)
			}

			const ticks = 400
			var stop atomic.Bool
			var wg sync.WaitGroup

			// Driver: advance the cluster; kill and revive a mid-pack
			// replica periodically (never replica 0, so the wait path
			// always has a live freshest target).
			wg.Add(1)
			go func() {
				defer wg.Done()
				victim := 1 + n/2
				for i := 0; i < ticks; i++ {
					sim.Tick(50)
					switch i % 100 {
					case 40:
						sim.Kill(victim)
					case 80:
						sim.Revive(victim)
					}
				}
				// Drain stragglers: run the clock far enough ahead that
				// every parked wait admits, then stop the queriers.
				sim.Revive(victim)
				sim.Tick(10 * 2000)
				stop.Store(true)
				// Keep ticking so replicas still behind the final qts
				// catch up and release their waiters.
				for i := 0; i < 50; i++ {
					sim.Tick(2000)
				}
			}()

			// Queriers: random timestamps up to slightly ahead of the
			// primary clock, checking the invariant on every admission.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						now := sim.Now()
						qts := rng.Int63n(now + 100)
						adm, err := router.Admit(qts, 1)
						if err != nil {
							continue // all targets dead at that instant: legal
						}
						if got := adm.Replica.VisibleTS(); got < adm.TS {
							t.Errorf("INVARIANT: replica %s watermark %d < admitted ts %d",
								adm.Replica.ID(), got, adm.TS)
						}
						if qts > 0 && adm.TS != qts {
							t.Errorf("pinned ts %d, want query ts %d", adm.TS, qts)
						}
						adm.Done()
					}
				}(int64(g + 1))
			}
			wg.Wait()

			members := sim.Members().order
			if len(members) != n {
				t.Fatalf("membership %d, want %d", len(members), n)
			}
			for _, m := range members {
				if l := m.load.Load(); l != 0 {
					t.Fatalf("leaked %d load slots on %s", l, m.r.ID())
				}
			}
			// Deterministic zero-block check (the racing queriers above may
			// finish before any admission lands): a qts every replica has
			// passed must hit without waiting.
			hits := m.RouteHits.Load()
			adm, err := router.Admit(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if adm.Waited || m.RouteHits.Load() != hits+1 {
				t.Fatalf("satisfied admission waited=%v hits %d→%d", adm.Waited, hits, m.RouteHits.Load())
			}
			adm.Done()
		})
	}
}

// TestSimSatisfiedQueryNeverBlocks is the acceptance bar's second half:
// a query whose snapshot ts is already satisfied by ANY live replica is
// admitted without blocking — observed through the hit/wait counters.
func TestSimSatisfiedQueryNeverBlocks(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry())
	sim, err := NewSimulator(SimConfig{Replicas: 8, Seed: 7, MaxLag: 5000})
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(RouterConfig{Members: sim.Members(), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sim.Tick(100)
		// The laggiest live replica's watermark: satisfied by every live
		// replica, so admission must be a hit even if routed anywhere.
		minVis := int64(-1)
		for _, r := range sim.Replicas() {
			if vis := r.VisibleTS(); r.Healthy() && (minVis < 0 || vis < minVis) {
				minVis = vis
			}
		}
		if minVis <= 0 {
			continue
		}
		hits, waits := m.RouteHits.Load(), m.RouteWaits.Load()
		adm, err := router.Admit(minVis, 1)
		if err != nil {
			t.Fatal(err)
		}
		if adm.Waited {
			t.Fatalf("tick %d: satisfied qts %d blocked on %s", i, minVis, adm.Replica.ID())
		}
		adm.Done()
		if m.RouteHits.Load() != hits+1 || m.RouteWaits.Load() != waits {
			t.Fatalf("tick %d: counters hits %d→%d waits %d→%d, want one hit, no wait",
				i, hits, m.RouteHits.Load(), waits, m.RouteWaits.Load())
		}
	}
}

// TestSimDeterminism: the same seed must replay the same lag trajectory.
func TestSimDeterminism(t *testing.T) {
	run := func() []int64 {
		sim, err := NewSimulator(SimConfig{Replicas: 16, Seed: 99, MaxLag: 3000})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			sim.Tick(77)
		}
		out := make([]int64, 0, 16)
		for _, r := range sim.Replicas() {
			if r.PrimaryTS() != sim.Now() || r.VisibleTS() > r.PrimaryTS() {
				t.Fatalf("replica %s: visible %d, primary %d, clock %d", r.ID(), r.VisibleTS(), r.PrimaryTS(), sim.Now())
			}
			out = append(out, r.VisibleTS())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replica %d diverged across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
	// The skew is real: replica 0 tracks the clock, the tail trails.
	if a[0] <= a[15] {
		t.Fatalf("no lag skew: head %d, tail %d", a[0], a[15])
	}
}
