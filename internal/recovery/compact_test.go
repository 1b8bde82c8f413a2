package recovery

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aets/internal/epoch"
	"aets/internal/metrics"
	"aets/internal/ship"
)

// assertReplayFrom replays the spool from `from` and asserts it yields
// exactly encs[from:], byte-identical.
func assertReplayFrom(t *testing.T, sp *Spool, encs []epoch.Encoded, from uint64) {
	t.Helper()
	got := collect(t, sp, from)
	want := encs[from:]
	if len(got) != len(want) {
		t.Fatalf("replay from %d: %d epochs, want %d", from, len(got), len(want))
	}
	for i, enc := range got {
		if enc.Seq != want[i].Seq || !bytes.Equal(enc.Buf, want[i].Buf) {
			t.Fatalf("replay from %d: epoch %d (seq %d) did not round-trip", from, i, enc.Seq)
		}
	}
}

// TestSpoolCompactMidSegment compacts to a cursor inside a segment: the
// dead prefix is dropped, bytes are reclaimed, the rewritten boundary
// segment keeps its (now lower-bound) name, and a reopen recovers the
// exact surviving range.
func TestSpoolCompactMidSegment(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	encs := testEncs(t, 12)
	// 3 segments of ~4 epochs each.
	segBytes := 0
	for i := 0; i < 4; i++ {
		segBytes += len(ship.AppendFrame(nil, ship.KindEpoch, 0, ship.EncodeEpoch(&encs[i])))
	}
	sp := openTestSpool(t, dir, SpoolConfig{MaxSegmentBytes: segBytes, Policy: SyncAlways, Metrics: reg})
	appendAll(t, sp, encs)

	reclaimed, err := sp.Compact(6) // inside the middle segment
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 {
		t.Fatalf("reclaimed %d bytes, want > 0", reclaimed)
	}
	if first, next, ok := sp.Range(); !ok || first != 6 || next != 12 {
		t.Fatalf("range [%d,%d) ok=%v, want [6,12)", first, next, ok)
	}
	assertReplayFrom(t, sp, encs, 6)
	if v := reg.Counter("recovery_spool_compactions_total").Load(); v != 1 {
		t.Fatalf("compactions counter %d, want 1", v)
	}
	if v := reg.Counter("recovery_spool_compact_reclaimed_bytes_total").Load(); v != reclaimed {
		t.Fatalf("reclaimed counter %d, want %d", v, reclaimed)
	}
	// The spool must keep accepting appends after compaction.
	extra := encs[11]
	extra.Seq = 12
	if err := sp.Append(&extra); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the boundary segment's name is now a lower bound on its
	// content; recovery must accept that and report the true range.
	sp = openTestSpool(t, dir, SpoolConfig{})
	defer sp.Close()
	if first, next, ok := sp.Range(); !ok || first != 6 || next != 13 {
		t.Fatalf("reopened range [%d,%d) ok=%v, want [6,13)", first, next, ok)
	}
}

// TestSpoolCompactFullDrop compacts to End: every segment (including
// the active one) is removed, and the stream continues seamlessly at
// the preserved cursor.
func TestSpoolCompactFullDrop(t *testing.T) {
	dir := t.TempDir()
	sp := openTestSpool(t, dir, SpoolConfig{Policy: SyncAlways})
	defer sp.Close()
	encs := testEncs(t, 8)
	appendAll(t, sp, encs[:6])

	reclaimed, err := sp.Compact(6)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 {
		t.Fatalf("reclaimed %d bytes, want > 0", reclaimed)
	}
	if segs, _ := sp.segments(); len(segs) != 0 {
		t.Fatalf("%d segments survived a full drop", len(segs))
	}
	if _, _, ok := sp.Range(); ok {
		t.Fatal("spool claims a replayable range after dropping everything")
	}
	// The cursor carries in memory: seq 6 extends, seq 5 is a stale
	// duplicate, seq 9 is a gap.
	if err := sp.Append(&encs[5]); err != nil {
		t.Fatalf("stale duplicate after full drop: %v", err)
	}
	if err := sp.Append(&encs[6]); err != nil {
		t.Fatalf("append after full drop: %v", err)
	}
	assertReplayFrom(t, sp, encs[:7], 6)
}

// TestSpoolCompactTornTailAfterCompact tears the final frame after a
// compaction: recovery must keep the compacted segment's valid prefix —
// proving the rewritten file is a self-consistent frame stream.
func TestSpoolCompactTornTailAfterCompact(t *testing.T) {
	dir := t.TempDir()
	encs := testEncs(t, 6)
	sp := openTestSpool(t, dir, SpoolConfig{Policy: SyncAlways})
	appendAll(t, sp, encs)
	if _, err := sp.Compact(3); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, img[:len(img)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	sp = openTestSpool(t, dir, SpoolConfig{})
	defer sp.Close()
	if first, next, ok := sp.Range(); !ok || first != 3 || next != 5 {
		t.Fatalf("range [%d,%d) ok=%v, want [3,5)", first, next, ok)
	}
	assertReplayFrom(t, sp, encs[:5], 3)
}

// TestSpoolCompactStaleTmpDiscarded plants a leftover .tmp from a
// compaction that died before its rename: open must discard it and
// recover from the intact original.
func TestSpoolCompactStaleTmpDiscarded(t *testing.T) {
	dir := t.TempDir()
	encs := testEncs(t, 4)
	sp := openTestSpool(t, dir, SpoolConfig{Policy: SyncAlways})
	appendAll(t, sp, encs)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := lastSegment(t, dir) + compactTmpSuffix
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	sp = openTestSpool(t, dir, SpoolConfig{})
	defer sp.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale compaction tmp survived open (stat err %v)", err)
	}
	assertReplayFrom(t, sp, encs, 0)
}

// TestSpoolCompactAppendRace hammers Compact while appends stream in
// (run under -race): the spool must stay consistent and end with the
// full surviving suffix replayable.
func TestSpoolCompactAppendRace(t *testing.T) {
	dir := t.TempDir()
	encs := testEncs(t, 64)
	segBytes := 4 * len(ship.AppendFrame(nil, ship.KindEpoch, 0, ship.EncodeEpoch(&encs[0])))
	sp := openTestSpool(t, dir, SpoolConfig{MaxSegmentBytes: segBytes, Policy: SyncNever})
	defer sp.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, next, ok := sp.Range()
			if !ok || next < 8 {
				continue
			}
			if _, err := sp.Compact(next - 4); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	appendAll(t, sp, encs)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: one final compact to a known cursor, then verify.
	keep := uint64(len(encs) - 4)
	if _, err := sp.Compact(keep); err != nil {
		t.Fatal(err)
	}
	first, next, ok := sp.Range()
	if !ok || next != uint64(len(encs)) || first < keep {
		t.Fatalf("range [%d,%d) ok=%v after racing compacts, want [≥%d,%d)", first, next, ok, keep, len(encs))
	}
	assertReplayFrom(t, sp, encs, first)
}

// TestSpoolAppendWireCompressed spools a compressed frame exactly as
// received and replays it: the epoch comes back inflated and
// byte-identical, across a restart too.
func TestSpoolAppendWireCompressed(t *testing.T) {
	dir := t.TempDir()
	encs := testEncs(t, 4)
	sp := openTestSpool(t, dir, SpoolConfig{Policy: SyncAlways})
	appendAll(t, sp, encs[:2])

	// The compressed EPOCH payload: the epoch header stays clear (bufLen
	// = raw length), the buf bytes become a flate stream.
	for i := 2; i < 4; i++ {
		if err := sp.AppendWire(encs[i].Seq, ship.FlagCompressed, compressedPayload(&encs[i])); err != nil {
			t.Fatalf("AppendWire %d: %v", i, err)
		}
	}
	assertReplayFrom(t, sp, encs, 0)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery scans (and validates) the mixed raw/compressed
	// segment, and replay still inflates correctly.
	sp = openTestSpool(t, dir, SpoolConfig{})
	defer sp.Close()
	if first, next, ok := sp.Range(); !ok || first != 0 || next != 4 {
		t.Fatalf("reopened range [%d,%d) ok=%v, want [0,4)", first, next, ok)
	}
	assertReplayFrom(t, sp, encs, 0)

	// Compaction must carry compressed frames through untouched.
	if _, err := sp.Compact(3); err != nil {
		t.Fatal(err)
	}
	assertReplayFrom(t, sp, encs, 3)
}

// TestSpoolCompactBelowFirstIsNoop: a cursor at or below the oldest
// spooled epoch must not touch any file.
func TestSpoolCompactBelowFirstIsNoop(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	sp := openTestSpool(t, dir, SpoolConfig{Policy: SyncAlways, Metrics: reg})
	defer sp.Close()
	encs := testEncs(t, 4)
	appendAll(t, sp, encs)
	if _, err := sp.Compact(5); err != nil { // beyond End clamps to End
		t.Fatal(err)
	}
	if err := sp.Append(&encs[3]); err != nil { // idempotent duplicate still fine
		t.Fatal(err)
	}
	reclaimed, err := sp.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 0 {
		t.Fatalf("compact below first reclaimed %d bytes", reclaimed)
	}
}

// TestSpoolCompactKeepsLowerBoundInvariant: after two compactions the
// directory must never contain a segment whose leading frame is below
// its file-name seq (the invariant recovery validates).
func TestSpoolCompactKeepsLowerBoundInvariant(t *testing.T) {
	dir := t.TempDir()
	encs := testEncs(t, 10)
	segBytes := 3 * len(ship.AppendFrame(nil, ship.KindEpoch, 0, ship.EncodeEpoch(&encs[0])))
	sp := openTestSpool(t, dir, SpoolConfig{MaxSegmentBytes: segBytes, Policy: SyncAlways})
	defer sp.Close()
	appendAll(t, sp, encs)
	for _, keep := range []uint64{2, 7} {
		if _, err := sp.Compact(keep); err != nil {
			t.Fatal(err)
		}
		segs, err := sp.segments()
		if err != nil {
			t.Fatal(err)
		}
		for _, nameSeq := range segs {
			firstSeq, err := segmentFirstSeq(filepath.Join(dir, fmt.Sprintf("%s%020d%s", spoolPrefix, nameSeq, spoolSuffix)))
			if err != nil {
				t.Fatal(err)
			}
			if firstSeq < nameSeq {
				t.Fatalf("keep %d: segment %d holds seq %d below its name", keep, nameSeq, firstSeq)
			}
		}
		assertReplayFrom(t, sp, encs, keep)
	}
}
