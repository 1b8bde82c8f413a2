package cluster_test

import (
	"fmt"
	"testing"

	"aets/internal/cluster"
	"aets/internal/metrics"
)

// BenchmarkRouteQuery measures the zero-block admission path — the
// per-query routing overhead a proxy adds in front of a replica fleet —
// across topology sizes and a mixed satisfied/stale timestamp load.
func BenchmarkRouteQuery(b *testing.B) {
	for _, n := range []int{1, 3, 8, 64} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			m := cluster.NewMetrics(metrics.NewRegistry())
			sim, err := cluster.NewSimulator(cluster.SimConfig{Replicas: n, Seed: 42, MaxLag: 1000})
			if err != nil {
				b.Fatal(err)
			}
			router, err := cluster.NewRouter(cluster.RouterConfig{Members: sim.Members(), Metrics: m})
			if err != nil {
				b.Fatal(err)
			}
			// Settle the topology so every replica has a nonzero watermark
			// and the usual skew; queries target the laggiest watermark so
			// every admission is a zero-block hit.
			for i := 0; i < 50; i++ {
				sim.Tick(100)
			}
			qts := sim.Replicas()[n-1].VisibleTS()
			if qts <= 0 {
				b.Fatalf("topology did not settle: tail watermark %d", qts)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					adm, err := router.Admit(qts, 1)
					if err != nil {
						b.Fatal(err)
					}
					adm.Done()
				}
			})
			if w := m.RouteWaits.Load(); w != 0 {
				b.Fatalf("benchmark load blocked %d times; admission path not zero-block", w)
			}
		})
	}
}
