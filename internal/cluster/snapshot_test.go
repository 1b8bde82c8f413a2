// Fan-out snapshot catch-up tests: a bounded divergence buffer with a
// snapshot source sheds instead of dropping the peer, the shed replica
// rejoins via a wire snapshot with zero operator action, and link
// errors surface through membership.
package cluster_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aets/internal/cluster"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/recovery"
	"aets/internal/ship"
)

// supReceiver is a fanReceiver over a recovery.Supervisor in
// t.TempDir(): the supervisor is a ship.SnapshotApplier and
// DigestApplier, so its receiver negotiates CapSnapshot — the shape a
// rejoin-capable replica runs in production.
type supReceiver struct {
	*fanReceiver
	sup *recovery.Supervisor
}

func startSupReceiver(t *testing.T, reg *metrics.Registry, peer string) *supReceiver {
	t.Helper()
	spool, err := recovery.OpenSpool(recovery.SpoolConfig{
		Dir: t.TempDir(), Policy: recovery.SyncNever, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := recovery.OpenManager(t.TempDir(), 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := recovery.NewSupervisor(recovery.Config{
		Kind:        htap.KindAETS,
		Plan:        fanPlan(),
		Node:        htap.Options{Workers: 2},
		Spool:       spool,
		Checkpoints: mgr,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sup.Close()
		spool.Close()
	})
	rcv, err := ship.NewReceiver(ship.ReceiverConfig{
		Schema:       fanSchema(),
		Resume:       sup.NextSeq(),
		Applier:      sup,
		NeedSnapshot: sup.NeedSnapshot,
		Drain:        sup.Checkpoint,
		Metrics:      ship.NewPeerMetrics(reg, peer),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &supReceiver{fanReceiver: serveFan(t, rcv), sup: sup}
}

// TestFanoutShedOverflowRejoinsViaSnapshot: one peer is unreachable
// while the stream ships, its bounded queue sheds (counted, not
// terminal), and once it returns the sender re-bases it with a snapshot
// cut from the mirror — both replicas end reference-equal and no peer
// ever reports a terminal error.
func TestFanoutShedOverflowRejoinsViaSnapshot(t *testing.T) {
	encs := fanEncoded(2048, 64)
	want := fanDirect(t, encs)
	reg := metrics.NewRegistry()

	mirror := fanNode(t)
	defer mirror.Close()

	healthy := startSupReceiver(t, reg, "healthy")
	held := startSupReceiver(t, reg, "held")
	var up atomic.Bool
	heldDial := func() (net.Conn, error) {
		if !up.Load() {
			return nil, errors.New("held replica unreachable")
		}
		return net.Dial("tcp", held.addr)
	}

	f, err := cluster.NewFanout(cluster.FanoutConfig{
		Registry:    reg,
		MaxQueue:    8,
		Snapshot:    &htap.NodeSnapshotSource{N: mirror},
		DigestEvery: 64,
		Digest:      mirror.AntiEntropyDigest,
		Peers: []cluster.Peer{
			{ID: "healthy", Sender: ship.SenderConfig{
				Dial: fanDialer(healthy.addr), Schema: fanSchema(), Window: 8}},
			{ID: "held", Sender: ship.SenderConfig{
				Dial: heldDial, Schema: fanSchema(), Window: 8,
				MaxAttempts: 1 << 30, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range encs {
		// The mirror applies before the fan-out ships, upholding the
		// snapshot source contract.
		if err := mirror.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
		if err := f.Send(&encs[i]); err != nil {
			t.Fatalf("send epoch %d: %v", i, err)
		}
	}

	ovf := reg.Counter(metrics.WithLabel("cluster_peer_overflow_total", "peer", "held"))
	if ovf.Load() < 1 {
		t.Fatalf("cluster_peer_overflow_total{held} = %d, want >= 1", ovf.Load())
	}
	if got := f.Live(); got != 2 {
		t.Fatalf("live peers = %d, want 2 (shed overflow must not drop the peer)", got)
	}

	// The replica returns; Close drains the tail, and the sender bridges
	// the shed gap with a snapshot.
	up.Store(true)
	if err := f.Close(); err != nil {
		t.Fatalf("fan-out close: %v", err)
	}
	healthy.wait(t)
	held.wait(t)

	restored := reg.Counter(metrics.WithLabel("cluster_snapshot_restored_total", "peer", "held"))
	if restored.Load() < 1 {
		t.Fatalf("cluster_snapshot_restored_total{held} = %d, want >= 1", restored.Load())
	}
	for _, st := range f.Stats() {
		if st.Err != nil {
			t.Fatalf("peer %s terminal error: %v", st.ID, st.Err)
		}
	}
	fanAssertSame(t, healthy.sup.Node(), want, "healthy peer")
	fanAssertSame(t, held.sup.Node(), want, "held peer")

	// Anti-entropy ran over healthy replicas: none of the digests that
	// did land positionally may have mismatched.
	for _, peer := range []string{"healthy", "held"} {
		mm := reg.Counter(metrics.WithLabel("cluster_digest_mismatch_total", "peer", peer))
		if mm.Load() != 0 {
			t.Fatalf("cluster_digest_mismatch_total{%s} = %d on an uncorrupted replica", peer, mm.Load())
		}
	}
}

// TestFanoutAntiEntropyDigests: on a keeping-up link (unbounded queue),
// the digest cadence actually ships and verifies — the positional
// preconditions hold every DigestEvery epochs, and an uncorrupted
// replica never mismatches.
func TestFanoutAntiEntropyDigests(t *testing.T) {
	encs := fanEncoded(512, 64)
	want := fanDirect(t, encs)
	reg := metrics.NewRegistry()

	mirror := fanNode(t)
	defer mirror.Close()
	peer := startSupReceiver(t, reg, "r0")

	f, err := cluster.NewFanout(cluster.FanoutConfig{
		Registry:    reg,
		Snapshot:    &htap.NodeSnapshotSource{N: mirror},
		DigestEvery: 4,
		Digest:      mirror.AntiEntropyDigest,
		Peers: []cluster.Peer{{ID: "r0", Sender: ship.SenderConfig{
			Dial: fanDialer(peer.addr), Schema: fanSchema(), Window: 8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range encs {
		if err := mirror.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
		if err := f.Send(&encs[i]); err != nil {
			t.Fatalf("send epoch %d: %v", i, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	peer.wait(t)

	sent := reg.Counter(metrics.WithLabel("ship_digests_sent_total", "peer", "r0"))
	if sent.Load() < 1 {
		t.Fatalf("ship_digests_sent_total = %d, want >= 1", sent.Load())
	}
	verified := reg.Counter(metrics.WithLabel("ship_digests_verified_total", "peer", "r0"))
	if verified.Load() < 1 {
		t.Fatalf("ship_digests_verified_total = %d, want >= 1", verified.Load())
	}
	if mm := reg.Counter(metrics.WithLabel("cluster_digest_mismatch_total", "peer", "r0")); mm.Load() != 0 {
		t.Fatalf("cluster_digest_mismatch_total = %d on an uncorrupted replica", mm.Load())
	}
	fanAssertSame(t, peer.sup.Node(), want, "replica")
}
