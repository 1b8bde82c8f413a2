// Package recovery is the crash-recovery subsystem of a backup node: a
// durable epoch spool (every replicated epoch is persisted locally
// before it is acknowledged), an atomic checkpoint manager (write-tmp,
// fsync, rename, retain-K, corruption fallback), and a replay
// supervisor that owns the htap.Node lifecycle — restoring the newest
// valid checkpoint plus the spool tail on startup and rebuilding the
// node with bounded, jittered backoff when replay fails fatally. A
// poison epoch that keeps failing is quarantined to a sidecar file so
// one bad epoch degrades the replica instead of crash-looping it.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aets/internal/epoch"
	"aets/internal/metrics"
	"aets/internal/ship"
)

// SyncPolicy selects when the spool fsyncs appended epochs.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended epoch: an acknowledged
	// epoch survives power loss. Slowest, strongest.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per configured interval (plus on
	// rotation and close): bounded loss window, near-SyncNever speed.
	SyncInterval
	// SyncNever leaves flushing to the OS. A crash of the process alone
	// loses nothing (writes are unbuffered); power loss may lose the
	// tail — which the primary re-ships after the resume handshake.
	SyncNever
)

// ParseSyncPolicy maps the -sync flag values to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("recovery: unknown sync policy %q (want always, interval or never)", s)
}

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ErrSpoolGap is returned by Append when an epoch does not extend the
// spool contiguously (the caller skipped a sequence).
var ErrSpoolGap = errors.New("recovery: spool sequence gap")

// ErrSpoolClosed is returned by operations on a closed spool.
var ErrSpoolClosed = errors.New("recovery: spool closed")

const (
	spoolPrefix = "spool-"
	spoolSuffix = ".seg"
	// DefaultSegmentBytes caps one spool segment file.
	DefaultSegmentBytes = 16 << 20
	// DefaultSyncInterval is the SyncInterval flush cadence.
	DefaultSyncInterval = 100 * time.Millisecond
)

// SpoolConfig configures a durable epoch spool.
type SpoolConfig struct {
	// Dir holds the segment files. Created if absent. Required.
	Dir string
	// MaxSegmentBytes rotates to a new segment file past this size.
	// ≤ 0 uses DefaultSegmentBytes.
	MaxSegmentBytes int
	// Policy is the fsync policy. Default SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval flush cadence. ≤ 0 uses
	// DefaultSyncInterval.
	Interval time.Duration
	// Metrics receives the spool gauges/counters; nil uses
	// metrics.Default.
	Metrics *metrics.Registry
}

// Spool is an append-only, file-backed archive of CRC-framed encoded
// epochs: the backup's local replication log. Each record is one ship
// EPOCH frame (magic, version, length, CRC32C) stored exactly as it
// arrived — a compressed frame is spooled compressed (AppendWire)
// and only inflated when replayed. Frames are appended to segment
// files named spool-<seq>.seg, where seq is a lower bound on the first
// epoch the file contains: exact at creation, and raised in place by
// Compact, which rewrites the oldest segment dropping epochs below the
// checkpoint cursor without renaming it. On open the spool scans its
// segments, truncates a torn or corrupt tail at the last valid frame
// boundary, and exposes the replayable range [First, End). A frame of
// another ship.Version ends the valid prefix like any corrupt frame: a
// segment an older build wrote truncates to nothing, and the replica
// resumes from its checkpoint.
//
// Append, AppendWire and Compact are safe for concurrent use; Replay
// must not run concurrently with Append or Compact (the supervisor
// serializes them).
type Spool struct {
	cfg SpoolConfig

	mu      sync.Mutex
	f       *os.File // current segment, nil before the first append
	size    int64
	first   uint64 // seq of the oldest spooled epoch (valid when have)
	next    uint64 // next seq Append accepts; end of the replayable range
	have    bool   // at least one epoch is spooled
	dirty   bool   // unsynced bytes in the current segment
	lastTry time.Time
	closed  bool
	stop    chan struct{}
	buf     []byte // reusable frame-encode buffer

	cTruncated *metrics.Counter
	cAppended  *metrics.Counter
	cSyncs     *metrics.Counter
	cCompacts  *metrics.Counter
	cReclaimed *metrics.Counter
	gEnd       *metrics.Gauge
	gSegments  *metrics.Gauge
}

// OpenSpool opens (or creates) the spool in cfg.Dir, recovering the
// replayable range: segments are scanned in order, the first torn or
// corrupt frame truncates the log from that point on (later segments
// are removed — they would be a gap), and the scan result defines
// First/End.
func (cfg SpoolConfig) open() (*Spool, error) {
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = DefaultSegmentBytes
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSyncInterval
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	sp := &Spool{
		cfg:        cfg,
		stop:       make(chan struct{}),
		cTruncated: cfg.Metrics.Counter("recovery_spool_truncated_total"),
		cAppended:  cfg.Metrics.Counter("recovery_spool_epochs_total"),
		cSyncs:     cfg.Metrics.Counter("recovery_spool_syncs_total"),
		cCompacts:  cfg.Metrics.Counter("recovery_spool_compactions_total"),
		cReclaimed: cfg.Metrics.Counter("recovery_spool_compact_reclaimed_bytes_total"),
		gEnd:       cfg.Metrics.Gauge("recovery_spool_end"),
		gSegments:  cfg.Metrics.Gauge("recovery_spool_segments"),
	}
	if err := sp.recover(); err != nil {
		return nil, err
	}
	if cfg.Policy == SyncInterval {
		go sp.syncLoop()
	}
	return sp, nil
}

// OpenSpool opens (or creates) a spool per cfg. See Spool.
func OpenSpool(cfg SpoolConfig) (*Spool, error) {
	if cfg.Dir == "" {
		return nil, errors.New("recovery: SpoolConfig.Dir is required")
	}
	return cfg.open()
}

// recover scans segments, truncating the log at the first invalid
// frame. Leftover .tmp files from a compaction that died before its
// rename are discarded first — the original segment is still intact.
func (sp *Spool) recover() error {
	ents, err := os.ReadDir(sp.cfg.Dir)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), spoolSuffix+compactTmpSuffix) {
			if err := os.Remove(filepath.Join(sp.cfg.Dir, de.Name())); err != nil {
				return err
			}
		}
	}
	segs, err := sp.segments()
	if err != nil {
		return err
	}
	expect := uint64(0)
	haveAny := false
	for i, nameSeq := range segs {
		good, firstSeq, lastSeq, n, serr := scanSegment(sp.path(nameSeq), nameSeq, haveAny, expect)
		if n > 0 {
			if !haveAny {
				sp.first, sp.have, haveAny = firstSeq, true, true
			}
			expect = lastSeq + 1
		}
		if serr != nil {
			// Torn or corrupt tail: keep the valid prefix, drop the rest of
			// this segment and every later one (they would be a gap).
			if err := os.Truncate(sp.path(nameSeq), good); err != nil {
				return fmt.Errorf("recovery: truncating torn spool segment: %w", err)
			}
			for _, later := range segs[i+1:] {
				if err := os.Remove(sp.path(later)); err != nil {
					return err
				}
			}
			sp.cTruncated.Inc()
			if n == 0 && !haveAny {
				// The whole first segment was bad; nothing replayable in it.
				if good == 0 {
					_ = os.Remove(sp.path(nameSeq))
				}
			}
			break
		}
	}
	sp.next = expect
	if !sp.have {
		sp.next = 0
	}
	sp.publishGauges()
	return nil
}

// scanSegment walks one segment's frames. It returns the byte offset
// of the end of the last valid frame, the first and last epoch seqs
// read, the number of valid frames, and the error that ended the scan
// (nil at clean EOF). A compressed frame is inflated here purely to
// validate it — the spooled bytes stay as received. The segment's
// leading frame must carry a seq at or above nameSeq (the file name is
// a lower bound; compaction raises the content floor in place), and in
// a non-leading segment it must continue the previous segment exactly;
// subsequent frames must be consecutive. Any mismatch is treated as
// corruption at that frame.
func scanSegment(path string, nameSeq uint64, haveAny bool, expect uint64) (good int64, firstSeq, lastSeq uint64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	for {
		kind, flags, payload, rerr := ship.ReadFrameFlags(cr)
		if rerr == io.EOF {
			return good, firstSeq, lastSeq, n, nil
		}
		if rerr != nil {
			return good, firstSeq, lastSeq, n, rerr
		}
		if kind != ship.KindEpoch {
			return good, firstSeq, lastSeq, n, fmt.Errorf("%w: unexpected frame kind %d in spool", ship.ErrCorrupt, kind)
		}
		enc, derr := ship.DecodeEpochFrame(flags, payload)
		if derr != nil {
			return good, firstSeq, lastSeq, n, derr
		}
		if n == 0 && !haveAny {
			if enc.Seq < nameSeq {
				return good, firstSeq, lastSeq, n, fmt.Errorf("%w: spool seq %d below segment floor %d", ship.ErrCorrupt, enc.Seq, nameSeq)
			}
			expect = enc.Seq
		}
		if enc.Seq != expect {
			return good, firstSeq, lastSeq, n, fmt.Errorf("%w: spool seq %d, want %d", ship.ErrCorrupt, enc.Seq, expect)
		}
		if n == 0 {
			firstSeq = enc.Seq
		}
		good, lastSeq = cr.n, enc.Seq
		expect++
		n++
	}
}

// countingReader counts consumed bytes; ReadFrame reads exactly what it
// needs, so n is always a frame boundary after a successful frame.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// End returns the next epoch seq the spool will accept (0 when empty
// and unaligned).
func (sp *Spool) End() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.next
}

// Append persists one encoded epoch. Epochs must extend the spool
// contiguously; a seq below End is a duplicate and is dropped (it is
// already durable), a seq above it is ErrSpoolGap. The configured sync
// policy decides whether Append returns only after an fsync.
func (sp *Spool) Append(enc *epoch.Encoded) error {
	return sp.AppendWire(enc.Seq, 0, ship.EncodeEpoch(enc))
}

// AppendWire persists one epoch exactly as it crossed the wire: the
// raw EPOCH frame payload plus its header flags, so a compressed frame
// is spooled compressed instead of being inflated and re-deflated.
// Same contiguity contract as Append.
func (sp *Spool) AppendWire(seq uint64, flags byte, payload []byte) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.buf = ship.AppendFrame(sp.buf[:0], ship.KindEpoch, flags, payload)
	return sp.appendFrameLocked(seq, sp.buf)
}

// appendFrameLocked writes one already-framed epoch record.
func (sp *Spool) appendFrameLocked(seq uint64, frame []byte) error {
	if sp.closed {
		return ErrSpoolClosed
	}
	if sp.have || sp.next > 0 {
		if seq < sp.next {
			return nil // already durable
		}
		if seq > sp.next {
			return fmt.Errorf("%w: appending %d, spool ends at %d", ErrSpoolGap, seq, sp.next)
		}
	}
	if sp.f == nil || sp.size >= int64(sp.cfg.MaxSegmentBytes) {
		if err := sp.rotateLocked(seq); err != nil {
			return err
		}
	}
	if _, err := sp.f.Write(frame); err != nil {
		return err
	}
	sp.size += int64(len(frame))
	if !sp.have {
		sp.first, sp.have = seq, true
	}
	sp.next = seq + 1
	sp.dirty = true
	sp.cAppended.Inc()
	sp.publishGauges()
	switch sp.cfg.Policy {
	case SyncAlways:
		return sp.syncLocked()
	case SyncInterval:
		if time.Since(sp.lastTry) >= sp.cfg.Interval {
			return sp.syncLocked()
		}
	}
	return nil
}

func (sp *Spool) syncLocked() error {
	if sp.f == nil || !sp.dirty {
		return nil
	}
	if err := sp.f.Sync(); err != nil {
		return err
	}
	sp.dirty = false
	sp.lastTry = time.Now()
	sp.cSyncs.Inc()
	return nil
}

// syncLoop bounds the SyncInterval loss window even when appends stop.
func (sp *Spool) syncLoop() {
	t := time.NewTicker(sp.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-sp.stop:
			return
		case <-t.C:
			sp.mu.Lock()
			if !sp.closed {
				_ = sp.syncLocked()
			}
			sp.mu.Unlock()
		}
	}
}

// rotateLocked closes the current segment (fsyncing it) and opens a new
// one whose name carries firstSeq. The directory entry is fsynced so
// the new file survives a crash.
func (sp *Spool) rotateLocked(firstSeq uint64) error {
	if sp.f != nil {
		if err := sp.syncLocked(); err != nil {
			return err
		}
		if err := sp.f.Close(); err != nil {
			return err
		}
		sp.f = nil
	}
	f, err := os.OpenFile(sp.path(firstSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(sp.cfg.Dir); err != nil {
		f.Close()
		return err
	}
	sp.f = f
	sp.size = 0
	return nil
}

// AlignTo prepares the spool to accept seq as its next append even when
// that leaves a gap — the supervisor calls it when a restored checkpoint
// is ahead of the spool (the skipped epochs are contained in the
// checkpoint, so the spooled prefix is useless history). All existing
// segments are removed.
func (sp *Spool) AlignTo(seq uint64) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return ErrSpoolClosed
	}
	if sp.have && seq <= sp.next {
		return nil // contiguous (or behind): nothing to do
	}
	if sp.f != nil {
		sp.f.Close()
		sp.f = nil
		sp.size = 0
		sp.dirty = false
	}
	segs, err := sp.segments()
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(sp.path(s)); err != nil {
			return err
		}
	}
	sp.have = false
	sp.first = 0
	sp.next = seq
	sp.publishGauges()
	return nil
}

// compactTmpSuffix marks a boundary segment mid-rewrite; recover()
// discards leftovers (the original is intact until the rename).
const compactTmpSuffix = ".tmp"

// Compact drops every spooled epoch below keep (typically the
// checkpoint cursor NextEpochSeq): segments wholly below it are
// removed — including the active one — and the boundary segment
// containing keep is rewritten in place without the dead prefix.
//
// Crash safety: whole-segment removals preserve contiguity at any
// prefix, and the boundary rewrite goes through write-tmp, fsync,
// rename, fsync-dir under the segment's existing name (which is why
// segment names are a lower bound, not the exact first seq). A crash
// at any point leaves either the old or the new content, never a gap;
// stale .tmp files are discarded on open. Safe with concurrent
// Append/AppendWire; must not run concurrently with Replay.
//
// Returns the bytes reclaimed.
func (sp *Spool) Compact(keep uint64) (int64, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return 0, ErrSpoolClosed
	}
	if !sp.have || keep <= sp.first {
		return 0, nil
	}
	if keep > sp.next {
		keep = sp.next
	}
	segs, err := sp.segments()
	if err != nil {
		return 0, err
	}
	// Content starts are read from the files themselves (the name is
	// only a floor); content end of segment i is the start of i+1, and
	// sp.next for the last.
	starts := make([]uint64, len(segs))
	for i, nameSeq := range segs {
		s, err := segmentFirstSeq(sp.path(nameSeq))
		if err != nil {
			return 0, err
		}
		starts[i] = s
	}
	var reclaimed int64
	worked := false
	for i, nameSeq := range segs {
		end := sp.next
		if i+1 < len(segs) {
			end = starts[i+1]
		}
		switch {
		case end <= keep:
			// Wholly dead: remove. The active segment is closed first so
			// the next append rotates to a fresh file.
			path := sp.path(nameSeq)
			st, err := os.Stat(path)
			if err != nil {
				return reclaimed, err
			}
			if i == len(segs)-1 && sp.f != nil {
				sp.f.Close()
				sp.f = nil
				sp.size = 0
				sp.dirty = false
			}
			if err := os.Remove(path); err != nil {
				return reclaimed, err
			}
			reclaimed += st.Size()
			worked = true
		case starts[i] < keep:
			// Boundary: rewrite in place without the dead prefix.
			active := i == len(segs)-1 && sp.f != nil
			if active {
				if err := sp.syncLocked(); err != nil {
					return reclaimed, err
				}
				sp.f.Close()
				sp.f = nil
			}
			newSize, oldSize, err := sp.rewriteSegment(nameSeq, keep)
			if err != nil {
				return reclaimed, err
			}
			reclaimed += oldSize - newSize
			worked = true
			if active {
				f, err := os.OpenFile(sp.path(nameSeq), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return reclaimed, err
				}
				sp.f = f
				sp.size = newSize
			}
		}
	}
	if keep == sp.next {
		sp.have = false
		sp.first = 0
	} else if sp.first < keep {
		sp.first = keep
	}
	if worked {
		sp.cCompacts.Inc()
		sp.cReclaimed.Add(reclaimed)
	}
	if err := syncDir(sp.cfg.Dir); err != nil {
		return reclaimed, err
	}
	sp.publishGauges()
	return reclaimed, nil
}

// rewriteSegment streams the segment named nameSeq into a tmp file,
// keeping only frames with seq ≥ keep (stored bytes pass through
// unchanged, compressed frames included), then atomically replaces the
// original. Returns the new and old sizes.
func (sp *Spool) rewriteSegment(nameSeq, keep uint64) (newSize, oldSize int64, err error) {
	path := sp.path(nameSeq)
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	oldSize = st.Size()
	src, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer src.Close()
	tmpPath := path + compactTmpSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			_ = os.Remove(tmpPath)
		}
	}()
	var frame []byte
	for {
		kind, flags, payload, rerr := ship.ReadFrameFlags(src)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, 0, fmt.Errorf("recovery: compacting spool segment: %w", rerr)
		}
		if kind != ship.KindEpoch || len(payload) < 8 {
			return 0, 0, fmt.Errorf("%w: unexpected frame in spool during compaction", ship.ErrCorrupt)
		}
		if seq := binary.LittleEndian.Uint64(payload); seq < keep {
			continue
		}
		frame = ship.AppendFrame(frame[:0], kind, flags, payload)
		n, werr := tmp.Write(frame)
		if werr != nil {
			return 0, 0, werr
		}
		newSize += int64(n)
	}
	if err = tmp.Sync(); err != nil {
		return 0, 0, err
	}
	if err = tmp.Close(); err != nil {
		return 0, 0, err
	}
	if err = os.Rename(tmpPath, path); err != nil {
		return 0, 0, err
	}
	return newSize, oldSize, nil
}

// segmentFirstSeq reads the seq of a segment's leading frame. An empty
// segment (possible after a recovery truncated it to zero) reports the
// maximum seq so callers treat it as containing nothing below any
// cursor.
func segmentFirstSeq(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kind, _, payload, err := ship.ReadFrameFlags(f)
	if err == io.EOF {
		return ^uint64(0), nil
	}
	if err != nil {
		return 0, err
	}
	if kind != ship.KindEpoch || len(payload) < 8 {
		return 0, fmt.Errorf("%w: unexpected frame at spool segment head", ship.ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// Replay streams every spooled epoch with seq ≥ from through fn, in
// order. It must not run concurrently with Append or Compact. fn's
// epoch (and its Buf) is freshly allocated per call and may be
// retained — spooled compressed frames are inflated here.
func (sp *Spool) Replay(from uint64, fn func(*epoch.Encoded) error) error {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return ErrSpoolClosed
	}
	if err := sp.syncLocked(); err != nil {
		sp.mu.Unlock()
		return err
	}
	segs, err := sp.segments()
	sp.mu.Unlock()
	if err != nil {
		return err
	}
	// Start at the last segment whose first seq ≤ from.
	start := 0
	for i, s := range segs {
		if s <= from {
			start = i
		}
	}
	for _, firstSeq := range segs[start:] {
		if err := replaySegment(sp.path(firstSeq), from, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, from uint64, fn func(*epoch.Encoded) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for {
		kind, flags, payload, err := ship.ReadFrameFlags(f)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if kind != ship.KindEpoch {
			return fmt.Errorf("%w: unexpected frame kind %d in spool", ship.ErrCorrupt, kind)
		}
		enc, err := ship.DecodeEpochFrame(flags, payload)
		if err != nil {
			return err
		}
		if enc.Seq < from {
			continue
		}
		if err := fn(enc); err != nil {
			return err
		}
	}
}

// Close fsyncs and closes the spool.
func (sp *Spool) Close() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return nil
	}
	sp.closed = true
	close(sp.stop)
	if sp.f == nil {
		return nil
	}
	if err := sp.f.Sync(); err != nil {
		sp.f.Close()
		return err
	}
	err := sp.f.Close()
	sp.f = nil
	return err
}

func (sp *Spool) publishGauges() {
	sp.gEnd.Set(float64(sp.next))
	if segs, err := sp.segments(); err == nil {
		sp.gSegments.Set(float64(len(segs)))
	}
}

func (sp *Spool) path(firstSeq uint64) string {
	return filepath.Join(sp.cfg.Dir, fmt.Sprintf("%s%020d%s", spoolPrefix, firstSeq, spoolSuffix))
}

// segments returns the first seqs of all segment files, ascending.
func (sp *Spool) segments() ([]uint64, error) {
	ents, err := os.ReadDir(sp.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, de := range ents {
		name := de.Name()
		if !strings.HasPrefix(name, spoolPrefix) || !strings.HasSuffix(name, spoolSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, spoolPrefix), spoolSuffix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
