// End-to-end tests of wire-level snapshot catch-up and anti-entropy:
// a sender with a snapshot source re-basing receivers whose cursors it
// cannot serve, digest mismatches triggering repair, and torn transfers
// never leaving partial state behind.
package ship_test

import (
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/htap"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/recovery"
	"aets/internal/ship"
)

// supervisedReceiver is the snapshot-capable backup the catch-up tests
// run against: a recovery.Supervisor over t.TempDir() — the applier
// that can restore a wire snapshot — already holding the epochs in
// held, behind a receiver resuming at its cursor and carrying its
// repair latch.
func supervisedReceiver(t *testing.T, reg *metrics.Registry, held []epoch.Encoded) (*recovery.Supervisor, *ship.Receiver) {
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
		Plan:        tpccPlan(),
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
	for i := range held {
		if err := sup.Feed(&held[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sup, mustReceiver(t, ship.ReceiverConfig{
		Schema:       tpccSchema(),
		Resume:       sup.NextSeq(),
		Applier:      sup,
		NeedSnapshot: sup.NeedSnapshot,
		Metrics:      ship.NewMetrics(reg),
	})
}

// waitCounter polls a registry counter until it reaches want.
func waitCounter(t *testing.T, reg *metrics.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name).Load() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (at %d)", name, want, reg.Counter(name).Load())
}

// TestSnapshotCatchupColdGap: the mirror node applied every epoch but
// the sender is only handed the tail of the stream (a shed backlog).
// The receiver's cursor (0) is unservable, so the link must re-base it
// with a snapshot and then stream the tail — converging to the full
// state with zero operator action.
func TestSnapshotCatchupColdGap(t *testing.T) {
	encs := tpccEncoded(4000, 128)
	mirror := directNode(t, encs)
	defer mirror.Close()

	reg := metrics.NewRegistry()
	sup, rcv := supervisedReceiver(t, reg, nil)
	ln := listen(t)
	done, _ := serveLoop(ln, rcv)

	s := mustSender(t, ship.SenderConfig{
		Dial:        dialer(ln.Addr().String()),
		Schema:      tpccSchema(),
		Window:      8,
		MaxAttempts: 5,
		Metrics:     ship.NewMetrics(metrics.NewRegistry()),
		Snapshot:    &htap.NodeSnapshotSource{N: mirror},
	})
	// Only the tail ships as epochs; everything before it must arrive
	// via the snapshot.
	tail := encs[len(encs)/2:]
	for i := range tail {
		if err := s.Send(&tail[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "receiver")

	if st := s.Stats(); st.Snapshots < 1 {
		t.Fatalf("sender streamed %d snapshots, want >= 1", st.Snapshots)
	}
	if st := rcv.Stats(); st.SnapshotsRestored < 1 {
		t.Fatalf("receiver restored %d snapshots, want >= 1", st.SnapshotsRestored)
	}
	if got := reg.Counter("cluster_snapshot_restored_total").Load(); got < 1 {
		t.Fatalf("cluster_snapshot_restored_total = %d, want >= 1", got)
	}
	assertSameState(t, sup.Node(), mirror)
}

// TestSnapshotRequiresNegotiation: the same cold gap against a
// receiver that cannot restore snapshots (plain node applier) keeps
// the classic terminal behavior — the sender gives up rather than
// silently skipping epochs.
func TestSnapshotRequiresNegotiation(t *testing.T) {
	encs := tpccEncoded(1500, 128)
	mirror := directNode(t, encs)
	defer mirror.Close()

	backup := newNode(t)
	defer backup.Close()
	rcv := mustShipReceiver(t, backup, ship.ReceiverConfig{
		Schema: tpccSchema(), Metrics: ship.NewMetrics(metrics.NewRegistry())})
	ln := listen(t)
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = rcv.Serve(conn)
		}
	}()

	s := mustSender(t, ship.SenderConfig{
		Dial:        dialer(ln.Addr().String()),
		Schema:      tpccSchema(),
		Window:      4,
		MaxAttempts: 2,
		Metrics:     ship.NewMetrics(metrics.NewRegistry()),
		Snapshot:    &htap.NodeSnapshotSource{N: mirror},
	})
	defer s.Close()
	tail := encs[len(encs)/2:]
	var sendErr error
	for i := range tail {
		if sendErr = s.Send(&tail[i]); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		sendErr = s.Close()
	}
	if sendErr == nil {
		t.Fatal("gap against a snapshot-incapable receiver must stay terminal")
	}
	if st := s.Stats(); st.Snapshots != 0 {
		t.Fatalf("sender streamed %d snapshots without negotiation", st.Snapshots)
	}
}

// TestDigestMismatchTriggersSnapshotRepair: after a clean stream, an
// injected at-rest bit flip on the receiver makes the next DIGEST
// frame mismatch; the receiver requests repair on its next handshake
// and the sender re-bases it with a snapshot. The flip is healed.
func TestDigestMismatchTriggersSnapshotRepair(t *testing.T) {
	encs := tpccEncoded(3000, 128)
	mirror := newNode(t)
	defer mirror.Close()

	reg := metrics.NewRegistry()
	sup, rcv := supervisedReceiver(t, reg, nil)
	ln := listen(t)
	done, _ := serveLoop(ln, rcv)

	sreg := metrics.NewRegistry()
	s := mustSender(t, ship.SenderConfig{
		Dial:        dialer(ln.Addr().String()),
		Schema:      tpccSchema(),
		Window:      8,
		MaxAttempts: 8,
		Metrics:     ship.NewMetrics(sreg),
		Snapshot:    &htap.NodeSnapshotSource{N: mirror},
	})
	for i := range encs {
		if err := mirror.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
		if err := s.Send(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// A matching digest verifies cleanly once both ends align.
	seq, ts, dg := mirror.AntiEntropyDigest()
	verified := false
	for i := 0; i < 2000 && !verified; i++ {
		verified = s.SendDigest(seq, ts, dg)
		time.Sleep(2 * time.Millisecond)
	}
	if !verified {
		t.Fatal("digest never became sendable (window not draining?)")
	}
	waitCounter(t, reg, "ship_digests_verified_total", 1)

	// Inject an at-rest bit flip into the replica's committed state, and
	// publish it to the receiver goroutine: VerifyDigest takes the
	// supervisor mutex before scanning, so one round-trip through it
	// orders the corrupting write before the next digest scan.
	sup.Node().Drain()
	flipRandomColumnByte(t, sup.Node())
	_ = sup.NeedSnapshot()

	// The next digest catches it: the verify kills the connection and
	// the receiver flags itself for repair.
	if !s.SendDigest(seq, ts, dg) {
		t.Fatal("mismatching digest was not sent")
	}
	waitCounter(t, reg, "cluster_digest_mismatch_total", 1)

	// Reconnect: the handshake carries the repair request, the sender
	// streams a snapshot, the flip is healed.
	deadline := time.Now().Add(30 * time.Second)
	for reg.Counter("cluster_snapshot_restored_total").Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot repair never landed")
		}
		_ = s.Connect()
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "receiver")
	assertSameState(t, sup.Node(), mirror)
	if got := sreg.Counter("ship_digests_sent_total").Load(); got < 2 {
		t.Fatalf("ship_digests_sent_total = %d, want >= 2", got)
	}
}

// flipRandomColumnByte mutates one committed column value in place — a
// simulated at-rest corruption invisible to every wire CRC. The caller
// must have drained replay first.
func flipRandomColumnByte(t *testing.T, n *htap.Node) {
	t.Helper()
	mt := n.Memtable()
	for _, id := range mt.Tables() {
		flipped := false
		mt.Table(id).ScanAny(0, ^uint64(0), func(_ uint64, rec *memtable.Record) bool {
			v := rec.Latest()
			if v == nil || v.Deleted || len(v.Columns) == 0 || len(v.Columns[0].Value) == 0 {
				return true
			}
			v.Columns[0].Value[0] ^= 0x01
			flipped = true
			return false
		})
		if flipped {
			return
		}
	}
	t.Fatal("no committed column value to corrupt")
}
