package recovery

// Tests for the supervisor's snapshot catch-up surface: restoring a
// snapshot cut from another supervisor's node (durably, surviving
// restart), refusing torn or corrupt transfers without disturbing the
// live node, anti-entropy digest verification, and quarantine healing
// on restore.

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/htap"
	"aets/internal/ship"
)

// feedAll replays encs[from:to] into the supervisor.
func feedAll(t *testing.T, sup *Supervisor, encs []epoch.Encoded, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSupervisorSnapshotRoundTrip cuts a snapshot from a fully-caught-up
// supervisor and installs it on a stale one: the target must jump to the
// source's cursor, match the reference, and keep the state across a
// restart (the restore is durable, not in-memory only).
func TestSupervisorSnapshotRoundTrip(t *testing.T) {
	txns, encs := supStream(t, 900, 100)
	half := len(encs) / 2

	src := openSup(t, t.TempDir(), t.TempDir(), nil)
	defer src.close(t)
	feedAll(t, src.sup, encs, 0, len(encs))
	src.sup.Node().Drain()

	tgtSpool, tgtCkpt := t.TempDir(), t.TempDir()
	tgt := openSup(t, tgtSpool, tgtCkpt, nil)
	feedAll(t, tgt.sup, encs, 0, half)

	cursor, size, rc, err := (&htap.NodeSnapshotSource{N: src.sup.Node()}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if cursor != uint64(len(encs)) {
		t.Fatalf("snapshot cursor %d, want %d", cursor, len(encs))
	}
	if err := tgt.sup.RestoreSnapshot(cursor, size, rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()

	if got := tgt.sup.NextSeq(); got != cursor {
		t.Fatalf("target cursor %d after restore, want %d", got, cursor)
	}
	if st := tgt.sup.Stats(); st.SnapshotRestores != 1 {
		t.Fatalf("SnapshotRestores = %d, want 1", st.SnapshotRestores)
	}
	if h := tgt.sup.Health(); h.SnapshotRestores != 1 {
		t.Fatalf("health SnapshotRestores = %d, want 1", h.SnapshotRestores)
	}
	tgt.assertReference(t, txns)

	// Durability: a restart restores from the installed checkpoint.
	tgt.close(t)
	tgt = openSup(t, tgtSpool, tgtCkpt, nil)
	defer tgt.close(t)
	if got := tgt.sup.NextSeq(); got != cursor {
		t.Fatalf("cursor %d after restart, want %d", got, cursor)
	}
	tgt.assertReference(t, txns)
}

// failingReader errors after a prefix — a torn wire transfer as the
// applier sees it.
type failingReader struct {
	r io.Reader
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		return n, ship.ErrShortFrame
	}
	return n, err
}

// TestSupervisorRestoreRejectsTornAndCorrupt: a torn stream and a
// corrupt stream must both fail without touching the live node, its
// cursor, or the durable checkpoint set.
func TestSupervisorRestoreRejectsTornAndCorrupt(t *testing.T) {
	txns, encs := supStream(t, 600, 100)
	half := len(encs) / 2

	src := openSup(t, t.TempDir(), t.TempDir(), nil)
	defer src.close(t)
	feedAll(t, src.sup, encs, 0, len(encs))
	src.sup.Node().Drain()

	tgt := openSup(t, t.TempDir(), t.TempDir(), nil)
	defer tgt.close(t)
	feedAll(t, tgt.sup, encs, 0, half)

	// Torn: half the snapshot bytes then an error.
	cursor, _, rc, err := (&htap.NodeSnapshotSource{N: src.sup.Node()}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	torn := &failingReader{r: bytes.NewReader(blob[:len(blob)/2])}
	if err := tgt.sup.RestoreSnapshot(cursor, int64(len(blob)), torn); err == nil {
		t.Fatal("torn snapshot restore succeeded")
	}

	// Corrupt: right size, garbage bytes.
	garbage := bytes.Repeat([]byte{0x5a}, len(blob))
	if err := tgt.sup.RestoreSnapshot(cursor, int64(len(blob)), bytes.NewReader(garbage)); err == nil {
		t.Fatal("corrupt snapshot restore succeeded")
	}

	// Cursor mismatch: a valid checkpoint claimed at the wrong cursor.
	if err := tgt.sup.RestoreSnapshot(cursor+7, int64(len(blob)), bytes.NewReader(blob)); err == nil {
		t.Fatal("cursor-mismatched snapshot restore succeeded")
	}

	if got := tgt.sup.NextSeq(); got != uint64(half) {
		t.Fatalf("cursor moved to %d after failed restores, want %d", got, half)
	}
	if st := tgt.sup.Stats(); st.SnapshotRestores != 0 {
		t.Fatalf("SnapshotRestores = %d after failed restores, want 0", st.SnapshotRestores)
	}
	if st := tgt.sup.State(); st != StateRunning {
		t.Fatalf("state %s after failed restores, want running", st)
	}
	tgt.assertReference(t, txns[:txnsThrough(t, encs, half)])
}

// txnsThrough counts the transactions contained in encs[:k] so a
// half-stream reference can be built from the txn slice.
func txnsThrough(t *testing.T, encs []epoch.Encoded, k int) int {
	t.Helper()
	n := 0
	for i := 0; i < k; i++ {
		n += encs[i].TxnCount
	}
	return n
}

// TestSupervisorDigestRepairFlow: a matching digest verifies clean; a
// mismatched one at the aligned cursor reports ship.ErrDigestMismatch
// and latches NeedSnapshot until a restore clears it.
func TestSupervisorDigestRepairFlow(t *testing.T) {
	_, encs := supStream(t, 600, 100)

	src := openSup(t, t.TempDir(), t.TempDir(), nil)
	defer src.close(t)
	feedAll(t, src.sup, encs, 0, len(encs))
	src.sup.Node().Drain()

	tgt := openSup(t, t.TempDir(), t.TempDir(), nil)
	defer tgt.close(t)
	feedAll(t, tgt.sup, encs, 0, len(encs))
	tgt.sup.Node().Drain()

	seq := tgt.sup.NextSeq()
	good := tgt.sup.Node().StateDigest()
	if err := tgt.sup.VerifyDigest(seq, 0, good); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	// A digest at a non-aligned cursor is not comparable: skipped.
	if err := tgt.sup.VerifyDigest(seq+3, 0, good^0xff); err != nil {
		t.Fatalf("non-aligned digest not skipped: %v", err)
	}
	if tgt.sup.NeedSnapshot() {
		t.Fatal("NeedSnapshot latched without a mismatch")
	}

	if err := tgt.sup.VerifyDigest(seq, 0, good^0xdead); !errors.Is(err, ship.ErrDigestMismatch) {
		t.Fatalf("mismatched digest: want ErrDigestMismatch, got %v", err)
	}
	if !tgt.sup.NeedSnapshot() {
		t.Fatal("NeedSnapshot not latched after mismatch")
	}
	st := tgt.sup.Stats()
	if st.DigestMismatches != 1 {
		t.Fatalf("DigestMismatches = %d, want 1", st.DigestMismatches)
	}
	if h := tgt.sup.Health(); h.DigestMismatches != 1 {
		t.Fatalf("health DigestMismatches = %d, want 1", h.DigestMismatches)
	}

	// The repair snapshot clears the latch.
	cursor, size, rc, err := (&htap.NodeSnapshotSource{N: src.sup.Node()}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.sup.RestoreSnapshot(cursor, size, rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if tgt.sup.NeedSnapshot() {
		t.Fatal("NeedSnapshot still latched after restore")
	}
}

// TestSupervisorRestoreHealsQuarantine: a degraded replica carrying a
// quarantined epoch is fully healed by a snapshot that supersedes the
// hole — sidecar removed, state running, reference-equal.
func TestSupervisorRestoreHealsQuarantine(t *testing.T) {
	txns, encs := supStream(t, 600, 100)
	k := len(encs) / 2

	src := openSup(t, t.TempDir(), t.TempDir(), nil)
	defer src.close(t)
	feedAll(t, src.sup, encs, 0, len(encs))
	src.sup.Node().Drain()

	spoolDir, ckptDir := t.TempDir(), t.TempDir()
	tgt := openSup(t, spoolDir, ckptDir, nil)
	feedAll(t, tgt.sup, encs, 0, k)
	poison := &epoch.Encoded{
		Seq:          uint64(k),
		TxnCount:     3,
		EntryCount:   7,
		Buf:          []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x13, 0x37},
		LastCommitTS: encs[k-1].LastCommitTS,
	}
	if err := tgt.sup.Feed(poison); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for tgt.sup.State() != StateDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("never degraded (stats %+v)", tgt.sup.Stats())
		}
		_ = tgt.sup.Probe()
		time.Sleep(time.Millisecond)
	}

	// The snapshot covers the quarantined sequence: restoring it heals
	// the hole and the degradation.
	cursor, size, rc, err := (&htap.NodeSnapshotSource{N: src.sup.Node()}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.sup.RestoreSnapshot(cursor, size, rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()

	if st := tgt.sup.State(); st != StateRunning {
		t.Fatalf("state %s after healing restore, want running", st)
	}
	if st := tgt.sup.Stats(); st.Quarantined != 0 {
		t.Fatalf("quarantined %d after healing restore, want 0", st.Quarantined)
	}
	if sidecars, _ := filepath.Glob(filepath.Join(spoolDir, quarantinePrefix+"*")); len(sidecars) != 0 {
		t.Fatalf("%d sidecar files survived the healing restore", len(sidecars))
	}
	tgt.assertReference(t, txns)

	// The healed state survives a restart: no sidecar resurrects the
	// quarantine.
	tgt.close(t)
	tgt = openSup(t, spoolDir, ckptDir, nil)
	defer tgt.close(t)
	if st := tgt.sup.State(); st != StateRunning {
		t.Fatalf("state %s after restart, want running", st)
	}
	if got := tgt.sup.NextSeq(); got != cursor {
		t.Fatalf("cursor %d after restart, want %d", got, cursor)
	}
	tgt.assertReference(t, txns)
}
