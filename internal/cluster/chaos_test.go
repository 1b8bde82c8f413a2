// Cluster chaos end-to-end: a primary fans one TPC-C stream out to
// three crash-recovering replicas over real TCP, replicas are
// hard-killed at randomized points and come back through
// internal/recovery (spool + checkpoint restore), and the whole time a
// freshness-aware router serves queries that must stay reference-equal
// to a serially applied ground truth.
package cluster_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aets/internal/cluster"
	"aets/internal/epoch"
	"aets/internal/htap"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/query"
	"aets/internal/recovery"
	"aets/internal/reference"
	"aets/internal/ship"
	"aets/internal/wal"
	"aets/internal/workload"
)

func fanTables() []wal.TableID {
	return workload.TableIDs(workload.NewTPCC(fanWarehouses).Tables())
}

// chaosListener remembers accepted connections so a crash severs them
// all at once, mid-frame.
type chaosListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *chaosListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *chaosListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// chaosReplica is one replica process stand-in: a recovery supervisor
// over its own durable spool/checkpoint dirs, fed by a ship.Receiver
// behind a killable listener. Restarting builds a brand-new supervisor
// from the same dirs. It is its own long-lived routing entry
// (cluster.Replica and cluster.Snapshotter): down while killed, then
// backed by the current life's supervisor.
type chaosReplica struct {
	id       string
	spoolDir string
	ckptDir  string
	reg      *metrics.Registry
	down     atomic.Bool
	cur      atomic.Pointer[cluster.SupervisorReplica]

	// compress advertises CapFlate, fixed for all of the replica's lives.
	compress bool

	addr atomic.Value // string: current listener address ("" while down)

	ln      *chaosListener
	spool   *recovery.Spool
	sup     *recovery.Supervisor
	serveWG sync.WaitGroup
}

func newChaosReplica(t *testing.T, id string, compress bool) *chaosReplica {
	t.Helper()
	cr := &chaosReplica{
		id:       id,
		spoolDir: filepath.Join(t.TempDir(), "spool"),
		ckptDir:  filepath.Join(t.TempDir(), "ckpt"),
		reg:      metrics.NewRegistry(),
		compress: compress,
	}
	if err := os.MkdirAll(cr.spoolDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(cr.ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cr.start(t)
	return cr
}

func (cr *chaosReplica) ID() string       { return cr.id }
func (cr *chaosReplica) VisibleTS() int64 { return cr.cur.Load().VisibleTS() }
func (cr *chaosReplica) Healthy() bool    { return !cr.down.Load() && cr.cur.Load().Healthy() }

func (cr *chaosReplica) WaitVisible(qts int64, tables []wal.TableID) bool {
	return cr.cur.Load().WaitVisible(qts, tables)
}

func (cr *chaosReplica) Query(qts int64, tables ...wal.TableID) *query.Snapshot {
	return cr.cur.Load().Query(qts, tables...)
}

// start opens (or reopens) the replica: supervisor restored from
// spool + checkpoints, fresh receiver resuming at its cursor, fresh
// listener.
func (cr *chaosReplica) start(t *testing.T) {
	t.Helper()
	spool, err := recovery.OpenSpool(recovery.SpoolConfig{Dir: cr.spoolDir, Metrics: cr.reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := recovery.OpenManager(cr.ckptDir, 0, cr.reg)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := recovery.NewSupervisor(recovery.Config{
		Kind:                  htap.KindAETS,
		Plan:                  fanPlan(),
		Node:                  htap.Options{Workers: 2},
		Spool:                 spool,
		Checkpoints:           mgr,
		CheckpointEveryEpochs: 8,
		RetryBase:             time.Millisecond,
		RetryMax:              5 * time.Millisecond,
		Metrics:               cr.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	rcv, err := ship.NewReceiver(ship.ReceiverConfig{
		Schema:  fanSchema(),
		Resume:  sup.NextSeq(),
		Applier: sup,
		// The repair latch must survive receiver (and process) lifetimes:
		// a digest mismatch detected in one life still requests its
		// snapshot in the next.
		NeedSnapshot: sup.NeedSnapshot,
		Metrics:      ship.NewPeerMetrics(cr.reg, cr.id),
		Compress:     cr.compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &chaosListener{Listener: base}
	cr.spool, cr.sup, cr.ln = spool, sup, ln
	cr.cur.Store(cluster.NewSupervisorReplica(cr.id, sup))
	cr.addr.Store(ln.Addr().String())
	cr.serveWG.Add(1)
	go func() {
		defer cr.serveWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Severed connections error mid-frame by design.
			finished, _ := rcv.Serve(conn)
			if finished {
				return
			}
		}
	}()
}

// kill hard-crashes the replica: mark it down for routing, sever every
// connection, abandon the supervisor with no drain and no parting
// checkpoint. Durability is whatever spool + checkpoints already hold.
func (cr *chaosReplica) kill(t *testing.T) {
	t.Helper()
	cr.down.Store(true)
	cr.addr.Store("")
	cr.ln.kill()
	cr.serveWG.Wait()
	if err := cr.sup.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cr.spool.Close(); err != nil {
		t.Fatal(err)
	}
}

// restart recovers the replica from its durable state and rejoins it to
// the cluster; the fan-out's sender for this peer reconnects on its own
// and resumes from the receiver's restored cursor.
func (cr *chaosReplica) restart(t *testing.T) {
	t.Helper()
	cr.start(t)
	cr.down.Store(false)
}

// dial targets the replica's current listener; while down it fails fast
// and the sender's backoff keeps probing until restart publishes a new
// address.
func (cr *chaosReplica) dial() (net.Conn, error) {
	a, _ := cr.addr.Load().(string)
	if a == "" {
		return nil, fmt.Errorf("replica %s down", cr.id)
	}
	return net.Dial("tcp", a)
}

// snapDigest fingerprints every visible row of every table at the
// snapshot: key, commit timestamp and sorted columns.
func snapDigest(t *testing.T, sn *query.Snapshot, tables []wal.TableID) string {
	t.Helper()
	h := fnv.New64a()
	for _, tb := range tables {
		fmt.Fprintf(h, "T%d:", tb)
		err := sn.Scan(tb, 0, ^uint64(0), func(r query.Row) bool {
			fmt.Fprintf(h, "%d@%d[", r.Key, r.CommitTS)
			cols := make([]uint32, 0, len(r.Columns))
			for c := range r.Columns {
				cols = append(cols, c)
			}
			sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
			for _, c := range cols {
				fmt.Fprintf(h, "%d=%x;", c, r.Columns[c])
			}
			fmt.Fprint(h, "]")
			return true
		})
		if err != nil {
			t.Fatalf("scan table %d: %v", tb, err)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// waitCaughtUp blocks until every live replica's visible watermark
// reaches ts (the fan-out senders' heartbeats push idle links forward).
func waitCaughtUp(t *testing.T, reps []*chaosReplica, ts int64) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		behind := ""
		for _, cr := range reps {
			if vis := cr.VisibleTS(); cr.Healthy() && vis < ts {
				behind = fmt.Sprintf("%s at %d/%d", cr.id, vis, ts)
				break
			}
		}
		if behind == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never caught up: %s", behind)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClusterChaosRoutedQueriesStayCorrect(t *testing.T) {
	txnCount, epochSize := 6000, 64
	if testing.Short() {
		txnCount, epochSize = 2000, 64
	}
	p := primary.New(workload.NewTPCC(fanWarehouses), 11)
	txns := p.GenerateTxns(txnCount)
	encs := epoch.EncodeAll(epoch.MustSplit(txns, epochSize))
	tables := fanTables()

	// Ground truth: the serial reference memtable, plus a fully fed node
	// whose MVCC snapshots answer "what should a query at ts see".
	want := memtable.New()
	reference.Apply(want, txns)
	refNode := fanDirect(t, encs)
	refDigests := map[int64]string{} // qts → digest, lazily filled

	refAt := func(qts int64) string {
		if d, ok := refDigests[qts]; ok {
			return d
		}
		d := snapDigest(t, refNode.Query(qts, tables...), tables)
		refDigests[qts] = d
		return d
	}

	// The cluster: three crash-recovering replicas, one router. With
	// AETS_CHAOS_COMPRESS set the fleet is capability-mixed: every sender
	// offers flate, r0 does not advertise CapFlate (it must keep receiving
	// raw frames), r1/r2 negotiate compression — proving one peer without
	// the capability cannot disable compression for its siblings.
	mixed := os.Getenv("AETS_CHAOS_COMPRESS") != ""
	if mixed {
		t.Log("chaos leg: mixed-capability fleet (r0 raw, r1/r2 flate)")
	}
	m := cluster.NewMetrics(metrics.NewRegistry())
	members := cluster.NewMembership(nil)
	reps := make([]*chaosReplica, 3)
	peers := make([]cluster.Peer, 3)
	for i := range reps {
		cr := newChaosReplica(t, fmt.Sprintf("r%d", i), mixed && i > 0)
		reps[i] = cr
		if err := members.Add(cr); err != nil {
			t.Fatal(err)
		}
		peers[i] = cluster.Peer{ID: cr.id, Sender: ship.SenderConfig{
			Dial:           cr.dial,
			Schema:         fanSchema(),
			Window:         8,
			HeartbeatEvery: 2 * time.Millisecond,
			RetryBase:      time.Millisecond,
			RetryMax:       10 * time.Millisecond,
			MaxAttempts:    1 << 30, // a dead replica is retried until it returns
			Compress:       mixed,
		}}
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Members: members, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	fan, err := cluster.NewFanout(cluster.FanoutConfig{Peers: peers, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))

	// verify routes k historical queries and one freshest-read, checking
	// the admission invariant and reference-equality of every snapshot.
	verify := func(upToTS int64, k int) {
		t.Helper()
		for q := 0; q < k; q++ {
			qts := 1 + rng.Int63n(upToTS)
			adm, err := router.Admit(qts, tables...)
			if err != nil {
				t.Fatalf("admit qts=%d: %v", qts, err)
			}
			if got := adm.Replica.VisibleTS(); got < adm.TS {
				t.Fatalf("INVARIANT: replica %s watermark %d < admitted ts %d",
					adm.Replica.ID(), got, adm.TS)
			}
			sn := adm.Replica.(cluster.Snapshotter).Query(adm.TS, tables...)
			if got, wantD := snapDigest(t, sn, tables), refAt(adm.TS); got != wantD {
				t.Fatalf("qts=%d on %s: snapshot digest %s, reference %s",
					adm.TS, adm.Replica.ID(), got, wantD)
			}
			adm.Done()
		}
		// Freshest read (qts ≤ 0): pinned to the chosen replica's own
		// watermark, still reference-equal there.
		adm, err := router.Admit(0, tables...)
		if err != nil {
			t.Fatal(err)
		}
		sn := adm.Replica.(cluster.Snapshotter).Query(adm.TS, tables...)
		if got, wantD := snapDigest(t, sn, tables), refAt(adm.TS); got != wantD {
			t.Fatalf("freshest read at %d on %s: digest %s, reference %s",
				adm.TS, adm.Replica.ID(), got, wantD)
		}
		adm.Done()
	}

	// assertZeroBlock admits a query every live replica already
	// satisfies and proves it neither waited nor bumped the wait counter.
	assertZeroBlock := func() {
		t.Helper()
		minVis := int64(-1)
		for _, cr := range reps {
			if vis := cr.VisibleTS(); cr.Healthy() && (minVis < 0 || vis < minVis) {
				minVis = vis
			}
		}
		if minVis <= 0 {
			t.Fatal("no live replica with data")
		}
		hits, waits := m.RouteHits.Load(), m.RouteWaits.Load()
		adm, err := router.Admit(minVis, tables...)
		if err != nil {
			t.Fatal(err)
		}
		if adm.Waited || m.RouteHits.Load() != hits+1 || m.RouteWaits.Load() != waits {
			t.Fatalf("satisfied query blocked: waited=%v hits %d→%d waits %d→%d",
				adm.Waited, hits, m.RouteHits.Load(), waits, m.RouteWaits.Load())
		}
		adm.Done()
	}

	// Ship in batches; every third round hard-kills a replica. Short mode
	// ships a smaller stream, so batches shrink to keep enough rounds for
	// the kills≥3 floor below.
	batch := 8
	if testing.Short() {
		batch = 4
	}
	kills := 0
	for i := 0; i < len(encs); i += batch {
		end := i + batch
		if end > len(encs) {
			end = len(encs)
		}
		for j := i; j < end; j++ {
			if err := fan.Send(&encs[j]); err != nil {
				t.Fatalf("fan-out send epoch %d: %v", j, err)
			}
		}
		sentTS := encs[end-1].LastCommitTS
		round := i / batch

		if round%3 == 1 {
			// Hard-kill a random replica mid-stream, route around it,
			// then bring it back through recovery.
			victim := rng.Intn(len(reps))
			reps[victim].kill(t)
			kills++
			// Query immediately, before the survivors have caught up: a
			// qts ahead of their watermarks parks on the freshest replica
			// (the wait path) and must still come back reference-equal.
			verify(sentTS, 2)
			waitCaughtUp(t, reps, sentTS)
			verify(sentTS, 4)
			assertZeroBlock()
			reps[victim].restart(t)
		} else {
			waitCaughtUp(t, reps, sentTS)
			verify(sentTS, 4)
			assertZeroBlock()
		}
	}
	if kills < 3 {
		t.Fatalf("only %d kills; the chaos schedule is broken", kills)
	}

	// Full-stream convergence: every replica (including the survivors of
	// every kill) must reach the final watermark and match the serial
	// reference record-for-record.
	lastTS := encs[len(encs)-1].LastCommitTS
	waitCaughtUp(t, reps, lastTS)
	verify(lastTS, 8)
	assertZeroBlock()

	// Per-peer byte accounting before Close tears the links down: the
	// peer without CapFlate must have shipped raw, the flate peers
	// measurably less.
	if mixed {
		for _, st := range fan.Stats() {
			switch st.ID {
			case "r0":
				if st.BytesWire != st.BytesRaw {
					t.Fatalf("raw peer r0 wire %d ≠ raw %d", st.BytesWire, st.BytesRaw)
				}
			default:
				if st.BytesWire >= st.BytesRaw {
					t.Fatalf("flate peer %s did not compress: wire %d ≥ raw %d", st.ID, st.BytesWire, st.BytesRaw)
				}
				t.Logf("%s wire/raw: %.3f (%d/%d)", st.ID,
					float64(st.BytesWire)/float64(st.BytesRaw), st.BytesWire, st.BytesRaw)
			}
		}
	}

	if err := fan.Close(); err != nil {
		t.Fatalf("fan-out close: %v", err)
	}
	for _, cr := range reps {
		cr.serveWG.Wait()
		node := cr.sup.Node()
		if node == nil {
			t.Fatalf("%s: no live node at the end", cr.id)
		}
		node.Drain()
		if err := node.Err(); err != nil {
			t.Fatalf("%s: %v", cr.id, err)
		}
		if err := reference.Equal(want, node.Memtable(), tables); err != nil {
			t.Fatalf("%s diverged from reference: %v", cr.id, err)
		}
		if err := cr.sup.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cr.spool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("chaos done: %d kills, hits=%d waits=%d failovers=%d",
		kills, m.RouteHits.Load(), m.RouteWaits.Load(), m.RouteFailovers.Load())
}

// flipAtRest corrupts one column byte in every committed record head of
// the node's memtable — at-rest corruption that no wire CRC ever sees.
// The blast radius is deliberate: the digest hashes version-chain heads
// only, and the stream keeps appending fresh heads, so a single flipped
// record could be silently papered over by its next update. Flipping
// every head guarantees some corrupted record survives to the next
// digest comparison. Callers must have drained replay and must publish
// the writes (any supervisor mutex round-trip) before traffic resumes.
func flipAtRest(t *testing.T, node *htap.Node, tables []wal.TableID) {
	t.Helper()
	flipped := 0
	for _, tb := range tables {
		node.Memtable().Table(tb).ScanAny(0, ^uint64(0), func(_ uint64, rec *memtable.Record) bool {
			v := rec.Latest()
			if v == nil || len(v.Columns) == 0 || len(v.Columns[0].Value) == 0 {
				return true
			}
			v.Columns[0].Value[0] ^= 0x01
			flipped++
			return true
		})
	}
	if flipped == 0 {
		t.Fatal("no committed record to corrupt")
	}
}

// TestClusterChaosSnapshotCatchup is the snapshot catch-up + anti-entropy
// chaos leg (AETS_CHAOS_SNAPSHOT=1, wired as a CI matrix leg):
//
//  1. a replica is held down while the stream runs past its bounded
//     divergence queue — the fan-out sheds instead of dropping it;
//  2. the replica rejoins with zero operator action: the sender bridges
//     the shed gap with a wire snapshot cut from the mirror, restored
//     durably through the recovery supervisor;
//  3. an at-rest bit flip on a healthy replica — invisible to every
//     frame CRC — is caught by the epoch-boundary state digests and
//     repaired through the same snapshot path.
//
// Throughout, no peer may fail terminally and every replica must end
// record-for-record equal to the serial reference.
func TestClusterChaosSnapshotCatchup(t *testing.T) {
	if os.Getenv("AETS_CHAOS_SNAPSHOT") == "" {
		t.Skip("set AETS_CHAOS_SNAPSHOT=1 to run the snapshot catch-up chaos leg")
	}
	txnCount, epochSize := 12000, 64
	if testing.Short() {
		txnCount = 4000
	}
	p := primary.New(workload.NewTPCC(fanWarehouses), 23)
	txns := p.GenerateTxns(txnCount)
	encs := epoch.EncodeAll(epoch.MustSplit(txns, epochSize))
	tables := fanTables()
	want := memtable.New()
	reference.Apply(want, txns)

	// The mirror applies every epoch before it ships — the freshness
	// contract behind both the snapshot source and the digest stream.
	mirror := fanNode(t)
	defer mirror.Close()

	reps := make([]*chaosReplica, 3)
	peers := make([]cluster.Peer, 3)
	for i := range reps {
		cr := newChaosReplica(t, fmt.Sprintf("r%d", i), false)
		reps[i] = cr
		peers[i] = cluster.Peer{ID: cr.id, Sender: ship.SenderConfig{
			Dial:           cr.dial,
			Schema:         fanSchema(),
			Window:         8,
			HeartbeatEvery: 2 * time.Millisecond,
			RetryBase:      time.Millisecond,
			RetryMax:       10 * time.Millisecond,
			MaxAttempts:    1 << 30, // a dead replica is retried until it returns
		}}
	}
	freg := metrics.NewRegistry()
	fan, err := cluster.NewFanout(cluster.FanoutConfig{
		Peers:       peers,
		Registry:    freg,
		MaxQueue:    8, // tiny on purpose: any held-down replica overflows fast
		Snapshot:    &htap.NodeSnapshotSource{N: mirror},
		DigestEvery: 4,
		Digest:      mirror.AntiEntropyDigest,
	})
	if err != nil {
		t.Fatal(err)
	}

	send := func(from, to int) int64 {
		t.Helper()
		for i := from; i < to; i++ {
			if err := mirror.Feed(&encs[i]); err != nil {
				t.Fatal(err)
			}
			if err := fan.Send(&encs[i]); err != nil {
				t.Fatalf("fan-out send epoch %d: %v", i, err)
			}
		}
		return encs[to-1].LastCommitTS
	}
	q := len(encs) / 4

	// Phase 1 — warm-up, everyone keeps up.
	waitCaughtUp(t, reps, send(0, q))

	// Phase 2 — r2 is held down while the stream runs a quarter past its
	// divergence budget: the queue must shed (counted), not drop the peer.
	reps[2].kill(t)
	ts := send(q, 2*q)
	ovf := freg.Counter(metrics.WithLabel("cluster_peer_overflow_total", "peer", "r2"))
	if ovf.Load() < 1 {
		t.Fatalf("cluster_peer_overflow_total{r2} = %d after %d epochs against MaxQueue 8", ovf.Load(), q)
	}
	if fan.Live() != 3 {
		t.Fatalf("live peers = %d after shed, want 3", fan.Live())
	}
	waitCaughtUp(t, reps, ts) // survivors unaffected

	// Phase 3 — r2 returns and must rejoin via wire snapshot with zero
	// operator action: no cursor munging, no manual reseed.
	reps[2].restart(t)
	waitCaughtUp(t, reps, send(2*q, 3*q))
	restored2 := reps[2].reg.Counter(metrics.WithLabel("cluster_snapshot_restored_total", "peer", "r2"))
	if restored2.Load() < 1 {
		t.Fatalf("cluster_snapshot_restored_total{r2} = %d, want >= 1", restored2.Load())
	}
	if st := reps[2].sup.Stats(); st.SnapshotRestores < 1 {
		t.Fatalf("supervisor SnapshotRestores = %d, want >= 1", st.SnapshotRestores)
	}
	for _, st := range fan.Stats() {
		if st.Err != nil {
			t.Fatalf("peer %s terminal error: %v", st.ID, st.Err)
		}
	}

	// Phase 4 — at-rest corruption on r1: flip one committed byte that no
	// wire CRC ever covered, then keep streaming. The epoch-boundary
	// digests must catch the divergence and the snapshot path must repair
	// it before the stream ends.
	mm := reps[1].reg.Counter(metrics.WithLabel("cluster_digest_mismatch_total", "peer", "r1"))
	restored1 := reps[1].reg.Counter(metrics.WithLabel("cluster_snapshot_restored_total", "peer", "r1"))
	// drained waits for every link to hand off and ack its whole queue —
	// phase 4 is paced so r1 never overflows and every digest arrives
	// positionally aligned.
	drained := func() {
		dl := time.Now().Add(30 * time.Second)
		for time.Now().Before(dl) {
			idle := true
			for _, st := range fan.Stats() {
				if st.Queued > 0 || st.Inflight > 0 || st.SnapWait {
					idle = false
					break
				}
			}
			if idle {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	drained()
	time.Sleep(50 * time.Millisecond) // let trailing digest frames land first
	flip := func() {
		reps[1].sup.Node().Drain()
		flipAtRest(t, reps[1].sup.Node(), tables)
		// Publish the flip to the receiver goroutine: VerifyDigest takes
		// the supervisor mutex before scanning, so one round-trip through
		// it orders the corrupting write before any later digest scan.
		_ = reps[1].sup.NeedSnapshot()
	}
	flip()
	// Hold a reserve back: repair rides reconnection, and reconnection
	// rides traffic — the reserve guarantees Sends after the mismatch
	// drops the link.
	reserve := 8
	mmBase, resBase := mm.Load(), restored1.Load()
	i := 3 * q
	for mm.Load() == mmBase {
		if i >= len(encs)-reserve {
			sent := freg.Counter(metrics.WithLabel("ship_digests_sent_total", "peer", "r1"))
			verified := reps[1].reg.Counter(metrics.WithLabel("ship_digests_verified_total", "peer", "r1"))
			t.Fatalf("digests never caught the bit flip: sent=%d verified=%d mismatches=%d restores=%d node seq=%d (sup %+v)",
				sent.Load(), verified.Load(), mm.Load()-mmBase, restored1.Load()-resBase,
				reps[1].sup.Node().NextSeq(), reps[1].sup.Stats())
		}
		end := i + 4
		if end > len(encs)-reserve {
			end = len(encs) - reserve
		}
		send(i, end)
		i = end
		drained()
		if restored1.Load() > resBase && mm.Load() == mmBase {
			// An overflow-shed snapshot re-based r1 and silently wiped the
			// corruption before any digest compared it: flip again so the
			// anti-entropy path (not luck) does the healing.
			resBase = restored1.Load()
			flip()
		}
	}
	// The mismatch dropped the link; the remaining traffic (at least the
	// reserve) reconnects it, the WELCOME requests repair, and the
	// snapshot restores. Resume from i — every epoch ships exactly once.
	waitCaughtUp(t, reps, send(i, len(encs)))
	deadline := time.Now().Add(60 * time.Second)
	for restored1.Load() <= resBase {
		if time.Now().After(deadline) {
			t.Fatalf("bit flip detected but never repaired: mismatches=%d restores=%d (sup %+v)",
				mm.Load()-mmBase, restored1.Load()-resBase, reps[1].sup.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := reps[1].sup.Stats(); st.DigestMismatches < 1 {
		t.Fatalf("supervisor DigestMismatches = %d, want >= 1", st.DigestMismatches)
	}

	// Full-stream convergence: every replica — shed, repaired, untouched —
	// matches the serial reference record-for-record.
	if err := fan.Close(); err != nil {
		t.Fatalf("fan-out close: %v", err)
	}
	for _, cr := range reps {
		cr.serveWG.Wait()
		node := cr.sup.Node()
		if node == nil {
			t.Fatalf("%s: no live node at the end", cr.id)
		}
		node.Drain()
		if err := node.Err(); err != nil {
			t.Fatalf("%s: %v", cr.id, err)
		}
		if err := reference.Equal(want, node.Memtable(), tables); err != nil {
			t.Fatalf("%s diverged from reference: %v", cr.id, err)
		}
		if err := cr.sup.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cr.spool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("snapshot chaos done: overflows{r2}=%d restores{r2}=%d mismatches{r1}=%d restores{r1}=%d",
		ovf.Load(), restored2.Load(), mm.Load(), restored1.Load())
}
