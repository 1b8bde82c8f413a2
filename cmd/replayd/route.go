package main

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aets/internal/cluster"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/ship"
	"aets/internal/workload"
)

// runRoute runs a whole 1-primary/N-replica topology in one process:
// N replica nodes behind real TCP receivers, a fan-out primary whose
// link to replica i carries i×-delay of injected latency (so the fleet
// settles into the usual one-fresh-many-stale shape), and a
// freshness-aware router serving -queries routed reads while the stream
// ships. It reports the zero-block hit rate, admission latency
// percentiles and how the reads spread across the fleet — the
// measurement harness behind EXPERIMENTS.md.
func runRoute(args []string) error {
	c, err := parseRouteFlags(args)
	if err != nil {
		return err
	}
	c.applyProfiles()

	gen, plan, err := workloadPlan(c.workload)
	if err != nil {
		return err
	}
	tables := workload.TableIDs(gen.Tables())
	schema := ship.SchemaHash(c.workload, tables)

	// Replica tier: N nodes behind loopback receivers.
	cm := cluster.NewMetrics(metrics.Default)
	members := cluster.NewMembership(cm)
	type replica struct {
		id   string
		node *htap.Node
		done chan struct{}
	}
	replicas := make([]*replica, c.replicas)
	peers := make([]cluster.Peer, c.replicas)
	for i := range replicas {
		id := fmt.Sprintf("replica-%d", i)
		node, err := htap.NewNode(htap.Kind(c.algo), plan, htap.Options{Workers: c.workers})
		if err != nil {
			return err
		}
		rcv, err := node.ShipReceiver(ship.ReceiverConfig{
			Schema:   schema,
			Metrics:  ship.NewPeerMetrics(metrics.Default, id),
			Drain:    func() error { node.Drain(); return node.Err() },
			Compress: c.compress,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		r := &replica{id: id, node: node, done: make(chan struct{})}
		replicas[i] = r
		go func() {
			defer close(r.done)
			defer ln.Close()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				finished, err := rcv.Serve(conn)
				if err != nil {
					fmt.Printf("  %s stream: %v\n", r.id, err)
				}
				if finished {
					return
				}
			}
		}()
		if err := members.Add(cluster.NewNodeReplica(id, node)); err != nil {
			return err
		}

		// Link i carries i×delay of injected latency on every read and
		// write — replica 0 is the fresh one, the tail trails.
		addr := ln.Addr().String()
		dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
		if c.delay > 0 && i > 0 {
			linkDelay := time.Duration(i) * c.delay
			dial = ship.FaultDialer(dial, func(int) ship.FaultOpts {
				return ship.FaultOpts{Latency: linkDelay}
			})
		}
		peers[i] = cluster.Peer{ID: id, Sender: ship.SenderConfig{
			Dial:           dial,
			Schema:         schema,
			Window:         32,
			HeartbeatEvery: 5 * time.Millisecond,
			Compress:       c.compress,
		}}
	}

	router, err := cluster.NewRouter(cluster.RouterConfig{Members: members, Metrics: cm})
	if err != nil {
		return err
	}
	fan, err := cluster.NewFanout(cluster.FanoutConfig{Peers: peers, Registry: metrics.Default})
	if err != nil {
		return err
	}

	// Primary tier: ship in the background, tracking the completed
	// watermark queries draw their timestamps from.
	p := primary.New(gen, c.seed)
	encs := p.GenerateEncoded(c.txns, c.epochSize)
	var shippedTS atomic.Int64
	shipDone := make(chan error, 1)
	go func() {
		for i := range encs {
			if err := fan.Send(&encs[i]); err != nil {
				shipDone <- err
				return
			}
			shippedTS.Store(encs[i].LastCommitTS)
			// Surface any link that died (dial budget, schema mismatch)
			// through membership, so Status shows "replica up, feed
			// dead" instead of silent staleness.
			fan.SyncLinkErrs(members)
			if c.rate > 0 {
				time.Sleep(time.Second / time.Duration(c.rate))
			}
		}
		shipDone <- nil
	}()

	// Query tier: -concurrency workers paced so the run spans the
	// stream. Concurrency is what makes the load signal real — the
	// router spreads satisfied queries across the fleet by in-flight
	// admissions.
	var pace time.Duration
	if c.rate > 0 && c.queries > 0 {
		streamTime := time.Duration(len(encs)) * time.Second / time.Duration(c.rate)
		pace = streamTime * time.Duration(c.concurrency) / time.Duration(c.queries)
	}
	var mu sync.Mutex
	lats := make([]time.Duration, 0, c.queries)
	served := make(map[string]int, c.replicas)
	start := time.Now()
	for shippedTS.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	var queryErr atomic.Value
	for w := 0; w < c.concurrency; w++ {
		share := c.queries / c.concurrency
		if w < c.queries%c.concurrency {
			share++
		}
		wg.Add(1)
		go func(seed int64, share int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < share; q++ {
				head := shippedTS.Load()
				qts := head
				if c.stale > 0 {
					qts -= rng.Int63n(c.stale + 1)
				}
				if qts < 1 {
					qts = 1
				}
				t0 := time.Now()
				adm, err := router.Admit(qts, tables...)
				if err != nil {
					queryErr.Store(fmt.Errorf("admit qts=%d: %w", qts, err))
					return
				}
				lat := time.Since(t0)
				// A real (cheap) read on the admitted snapshot, so the
				// routed replica does serve the query it was picked for.
				sn := adm.Replica.(cluster.Snapshotter).Query(adm.TS, tables...)
				if _, err = sn.Count(tables[0]); err != nil {
					adm.Done()
					queryErr.Store(err)
					return
				}
				mu.Lock()
				lats = append(lats, lat)
				served[adm.Replica.ID()]++
				mu.Unlock()
				adm.Done()
				if pace > 0 {
					time.Sleep(pace)
				}
			}
		}(c.seed+int64(w), share)
	}
	wg.Wait()
	queryTime := time.Since(start)
	if err, _ := queryErr.Load().(error); err != nil {
		return err
	}

	if err := <-shipDone; err != nil {
		return err
	}
	if err := fan.Close(); err != nil {
		return err
	}
	for _, r := range replicas {
		<-r.done
		r.node.Drain()
		if err := r.node.Err(); err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
	}

	hits, waits := cm.RouteHits.Load(), cm.RouteWaits.Load()
	hitRate := 0.0
	if hits+waits > 0 {
		hitRate = float64(hits) / float64(hits+waits)
	}
	fan.SyncLinkErrs(members)
	for _, st := range members.Snapshot() {
		link := ""
		if st.LinkErr != "" {
			link = "  link: " + st.LinkErr
		}
		fmt.Printf("  %-12s visible ts %8d  lag %6d  served %6d queries%s\n",
			st.ID, st.VisibleTS, st.ReplayLag, served[st.ID], link)
	}
	fmt.Printf("route summary: replicas=%d delay=%v stale=%d queries=%d hit_rate=%.3f waits=%d failovers=%d p50=%v p99=%v elapsed=%v\n",
		c.replicas, c.delay, c.stale, len(lats), hitRate, waits,
		cm.RouteFailovers.Load(), percentile(lats, 50), percentile(lats, 99),
		queryTime.Round(time.Millisecond))
	return nil
}

// percentile returns the p-th percentile of ds (nearest-rank).
func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
