package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aets/internal/epoch"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/ship"
	"aets/internal/workload"
)

func testEncs(tb testing.TB, n int) []epoch.Encoded {
	tb.Helper()
	p := primary.New(workload.NewTPCC(1), 7)
	return p.GenerateEncoded(n*8, 8) // n epochs of 8 txns
}

func openTestSpool(tb testing.TB, dir string, cfg SpoolConfig) *Spool {
	tb.Helper()
	cfg.Dir = dir
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	sp, err := OpenSpool(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

func appendAll(tb testing.TB, sp *Spool, encs []epoch.Encoded) {
	tb.Helper()
	for i := range encs {
		if err := sp.Append(&encs[i]); err != nil {
			tb.Fatalf("append %d: %v", i, err)
		}
	}
}

func collect(tb testing.TB, sp *Spool, from uint64) []*epoch.Encoded {
	tb.Helper()
	var out []*epoch.Encoded
	if err := sp.Replay(from, func(enc *epoch.Encoded) error {
		out = append(out, enc)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestSpoolRoundTrip(t *testing.T) {
	dir := t.TempDir()
	encs := testEncs(t, 10)
	sp := openTestSpool(t, dir, SpoolConfig{Policy: SyncAlways})
	appendAll(t, sp, encs)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	sp = openTestSpool(t, dir, SpoolConfig{})
	defer sp.Close()
	first, next, ok := sp.Range()
	if !ok || first != 0 || next != uint64(len(encs)) {
		t.Fatalf("range [%d,%d) ok=%v, want [0,%d)", first, next, ok, len(encs))
	}
	got := collect(t, sp, 0)
	if len(got) != len(encs) {
		t.Fatalf("replayed %d epochs, want %d", len(got), len(encs))
	}
	for i, enc := range got {
		if enc.Seq != encs[i].Seq || !bytes.Equal(enc.Buf, encs[i].Buf) ||
			enc.TxnCount != encs[i].TxnCount || enc.LastCommitTS != encs[i].LastCommitTS {
			t.Fatalf("epoch %d did not round-trip", i)
		}
	}
}

// TestSpoolTruncatesOlderVersion pins the upgrade rule: spool segments
// at rest are ship frames, so a segment an older build wrote — here one a
// version-4 build wrote, whose BEGIN and DML entries carry their txn ID
// and timestamp — fails ErrVersion at its first frame. Open truncates it
// to an empty range and counts one truncation; the spool then takes new
// epochs as usual.
func TestSpoolTruncatesOlderVersion(t *testing.T) {
	encs := testEncs(t, 6)
	dir, reg := t.TempDir(), metrics.NewRegistry()
	seg := filepath.Join(dir, fmt.Sprintf("%s%020d%s", spoolPrefix, 0, spoolSuffix))
	if err := os.WriteFile(seg, v4Segment(t), 0o644); err != nil {
		t.Fatal(err)
	}
	sp := openTestSpool(t, dir, SpoolConfig{Metrics: reg})
	defer sp.Close()
	if _, _, ok := sp.Range(); ok {
		t.Fatal("a segment of the previous version opened to a non-empty range")
	}
	if got := reg.Counter("recovery_spool_truncated_total").Load(); got != 1 {
		t.Fatalf("recovery_spool_truncated_total = %d, want 1", got)
	}
	appendAll(t, sp, encs[:2])
	if got := collect(t, sp, 0); len(got) != 2 {
		t.Fatalf("replayed %d epochs appended after the truncation, want 2", len(got))
	}
}

func TestSpoolDuplicateAndGap(t *testing.T) {
	sp := openTestSpool(t, t.TempDir(), SpoolConfig{})
	defer sp.Close()
	encs := testEncs(t, 3)
	appendAll(t, sp, encs[:2])
	if err := sp.Append(&encs[0]); err != nil {
		t.Fatalf("duplicate append should be dropped, got %v", err)
	}
	if got := sp.End(); got != 2 {
		t.Fatalf("duplicate advanced the cursor: end %d, want 2", got)
	}
	if err := sp.Append(&encs[2]); err != nil {
		t.Fatal(err)
	}
	gap := encs[2]
	gap.Seq = 7
	if err := sp.Append(&gap); !errors.Is(err, ErrSpoolGap) {
		t.Fatalf("gap append: got %v, want ErrSpoolGap", err)
	}
}

func TestSpoolRotationAndCompact(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment cap forces one rotation per epoch.
	sp := openTestSpool(t, dir, SpoolConfig{MaxSegmentBytes: 1})
	encs := testEncs(t, 8)
	appendAll(t, sp, encs)

	segs, err := sp.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(encs) {
		t.Fatalf("%d segments, want %d (one per epoch)", len(segs), len(encs))
	}
	if _, err := sp.Compact(5); err != nil {
		t.Fatal(err)
	}
	if segs, err = sp.segments(); err != nil || len(segs) != 3 {
		t.Fatalf("%d segments after compacting to 5, want 3 (err %v)", len(segs), err)
	}
	got := collect(t, sp, 5)
	if len(got) != 3 || got[0].Seq != 5 {
		t.Fatalf("post-compact replay: %d epochs from %d, want 3 from 5", len(got), got[0].Seq)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the range must pick up at the surviving prefix.
	sp = openTestSpool(t, dir, SpoolConfig{})
	defer sp.Close()
	first, next, ok := sp.Range()
	if !ok || first != 5 || next != 8 {
		t.Fatalf("reopened range [%d,%d) ok=%v, want [5,8)", first, next, ok)
	}
}

func TestSpoolAlignTo(t *testing.T) {
	sp := openTestSpool(t, t.TempDir(), SpoolConfig{})
	defer sp.Close()
	encs := testEncs(t, 4)
	appendAll(t, sp, encs[:2])

	// Contiguous target: a no-op that keeps the spooled epochs.
	if err := sp.AlignTo(1); err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, sp, 0)); got != 2 {
		t.Fatalf("AlignTo(1) dropped epochs: %d left, want 2", got)
	}

	// A checkpoint ahead of the spool: existing segments are stale
	// history and the next append must be the target seq.
	if err := sp.AlignTo(9); err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, sp, 0)); got != 0 {
		t.Fatalf("AlignTo(9) kept %d stale epochs", got)
	}
	jump := encs[3]
	jump.Seq = 9
	if err := sp.Append(&jump); err != nil {
		t.Fatalf("append at aligned seq: %v", err)
	}
	if got := sp.End(); got != 10 {
		t.Fatalf("end %d after aligned append, want 10", got)
	}
}

// lastSegment returns the path of the newest spool segment in dir.
func lastSegment(tb testing.TB, dir string) string {
	tb.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, spoolPrefix+"*"+spoolSuffix))
	if err != nil || len(ents) == 0 {
		tb.Fatalf("no spool segments in %s (%v)", dir, err)
	}
	return ents[len(ents)-1]
}

// TestSpoolTornTailEveryOffset truncates an fsynced segment at every
// byte offset inside its final frame and asserts open recovers the
// longest valid prefix — all epochs but the torn one — without error.
func TestSpoolTornTailEveryOffset(t *testing.T) {
	const n = 5
	encs := testEncs(t, n)

	// Build the segment image once.
	master := t.TempDir()
	sp := openTestSpool(t, master, SpoolConfig{Policy: SyncAlways})
	appendAll(t, sp, encs)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(lastSegment(t, master))
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := len(ship.AppendFrame(nil, ship.KindEpoch, 0, ship.EncodeEpoch(&encs[n-1])))
	tailStart := len(img) - lastFrame

	for cut := 0; cut < lastFrame; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(lastSegment(t, master))),
			img[:tailStart+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		sp, err := OpenSpool(SpoolConfig{Dir: dir, Metrics: reg})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		first, next, ok := sp.Range()
		if !ok || first != 0 || next != n-1 {
			t.Fatalf("cut %d: range [%d,%d) ok=%v, want [0,%d)", cut, first, next, ok, n-1)
		}
		got := collect(t, sp, 0)
		if len(got) != n-1 {
			t.Fatalf("cut %d: replayed %d epochs, want %d", cut, len(got), n-1)
		}
		// cut==0 severs exactly at a frame boundary: a clean EOF, nothing
		// truncated. Any partial frame must bump the truncation counter.
		wantTrunc := int64(1)
		if cut == 0 {
			wantTrunc = 0
		}
		if v := reg.Counter("recovery_spool_truncated_total").Load(); v != wantTrunc {
			t.Fatalf("cut %d: truncated counter %d, want %d", cut, v, wantTrunc)
		}
		// The spool must accept the torn epoch again (the transport
		// redelivers it after the resume handshake).
		if err := sp.Append(&encs[n-1]); err != nil {
			t.Fatalf("cut %d: re-append torn epoch: %v", cut, err)
		}
		if got := collect(t, sp, 0); len(got) != n {
			t.Fatalf("cut %d: after re-append replayed %d epochs, want %d", cut, len(got), n)
		}
		sp.Close()
	}
}

// TestSpoolBitFlipTruncatesAndDropsLaterSegments corrupts a byte in the
// middle of an early segment: open must keep the prefix before the flip
// and remove every later segment (they would be a sequence gap).
func TestSpoolBitFlipTruncatesAndDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	sp := openTestSpool(t, dir, SpoolConfig{MaxSegmentBytes: 1}) // rotate per epoch
	encs := testEncs(t, 6)
	appendAll(t, sp, encs)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in segment 3's payload.
	victim := filepath.Join(dir, fmt.Sprintf("%s%020d%s", spoolPrefix, 3, spoolSuffix))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	sp, err = OpenSpool(SpoolConfig{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatalf("open after bit flip: %v", err)
	}
	defer sp.Close()
	first, next, ok := sp.Range()
	if !ok || first != 0 || next != 3 {
		t.Fatalf("range [%d,%d) ok=%v, want [0,3)", first, next, ok)
	}
	if got := collect(t, sp, 0); len(got) != 3 {
		t.Fatalf("replayed %d epochs, want 3", len(got))
	}
	segs, err := sp.segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s > 3 {
			t.Fatalf("segment %d survived past the corruption", s)
		}
	}
	if v := reg.Counter("recovery_spool_truncated_total").Load(); v != 1 {
		t.Fatalf("truncated counter %d, want 1", v)
	}
}

// Range returns the replayable range: the first spooled epoch seq and
// the next seq Append accepts (end of range). ok is false when the
// spool is empty (both values are then meaningless).
func (sp *Spool) Range() (first, next uint64, ok bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.first, sp.next, sp.have
}
