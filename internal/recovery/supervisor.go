package recovery

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aets/internal/checkpoint"
	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/obsrv"
	"aets/internal/ship"
)

// State is the supervisor's coarse health state.
type State int32

const (
	// StateRunning: the node is live and every spooled epoch replayed.
	StateRunning State = iota
	// StateDegraded: the node is live but impaired — at least one poison
	// epoch was quarantined (its transactions are not in the store) or
	// replay had to skip unrecoverable history.
	StateDegraded
	// StateFatal: the retry budget is exhausted; the node is down and
	// the supervisor will not rebuild it again.
	StateFatal
)

// String returns the healthz status word for the state.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateDegraded:
		return "degraded"
	default:
		return "fatal"
	}
}

// ErrFatal is returned by Feed/Heartbeat once the supervisor has given
// up rebuilding the node.
var ErrFatal = errors.New("recovery: supervisor fatal, retry budget exhausted")

// quarantinePrefix names poison-epoch sidecar files in the spool dir.
const quarantinePrefix = "quarantine-"

// Config configures a Supervisor.
type Config struct {
	// Kind, Plan and Node build (and rebuild) the htap.Node.
	Kind htap.Kind
	Plan *grouping.Plan
	Node htap.Options
	// Spool is the durable epoch spool. Required.
	Spool *Spool
	// Checkpoints is the atomic checkpoint manager. Required.
	Checkpoints *Manager
	// CheckpointEveryEpochs cuts a checkpoint after this many applied
	// epochs. 0 disables count-based checkpointing.
	CheckpointEveryEpochs int
	// CheckpointInterval cuts a checkpoint at least this often while
	// epochs are arriving. 0 disables time-based checkpointing.
	CheckpointInterval time.Duration
	// RetryBase and RetryMax bound the exponential rebuild backoff
	// (jittered). Defaults 50ms and 5s.
	RetryBase, RetryMax time.Duration
	// RetryBudget is the consecutive failed rebuild attempts tolerated
	// before the supervisor goes fatal. Default 8. Must exceed
	// QuarantineAfter+1 for quarantine to engage before fatal.
	RetryBudget int
	// QuarantineAfter quarantines an epoch after this many consecutive
	// replay failures at the same sequence. Default 3.
	QuarantineAfter int
	// ProbeInterval is the watchdog cadence for detecting asynchronous
	// replay failures. 0 uses 250ms; negative disables the watchdog
	// (tests drive Probe explicitly).
	ProbeInterval time.Duration
	// Seed makes backoff jitter deterministic. Default 1.
	Seed int64
	// Metrics receives the recovery_* metrics; nil uses metrics.Default.
	Metrics *metrics.Registry
}

// Stats is a point-in-time view of the supervisor.
type Stats struct {
	State            State
	Restarts         int64 // successful rebuilds after the initial start
	Quarantined      int64 // poison epochs quarantined
	Fallbacks        int64 // corrupt checkpoints skipped during restore
	DigestMismatches int64 // anti-entropy divergences detected locally
	SnapshotRestores int64 // wire snapshots validated and installed
	LastErr          string
}

// Supervisor owns the htap.Node lifecycle on a backup: it spools every
// incoming epoch before applying it (so an acknowledged epoch is
// durable), restores newest-valid-checkpoint + spool tail on startup,
// and on a fatal replay error tears the node down and rebuilds it with
// jittered exponential backoff and a bounded retry budget. An epoch
// that keeps killing replay is quarantined to a sidecar file and
// skipped, leaving the node degraded instead of crash-looping.
//
// Supervisor implements ship.Applier: wire it to a ship.Receiver with
// Resume = NextSeq().
type Supervisor struct {
	cfg Config
	rng *rand.Rand

	// node is the live node, nil while down. Writers hold mu; readers
	// (Node, and through it every routed read) load it without the lock,
	// which Feed and Checkpoint hold for their whole duration. A writer
	// retiring a node unpublishes it before closing it, so a reader that
	// finds a closed node knows a successor, if any, is already visible.
	node atomic.Pointer[htap.Node]

	mu            sync.Mutex
	recoverCond   *sync.Cond // signalled when an in-flight recovery ends
	recovering    bool
	started       bool
	closed        bool
	sinceCkpt     int
	lastCkpt      time.Time
	ckptCursors   []uint64 // NextEpochSeq of checkpoints cut this lifetime (≤ retain)
	failSeq       uint64   // last sequence replay failed on (valid when failCount > 0)
	failCount     int      // consecutive failures at failSeq
	forcePinpoint bool     // an unattributed failure demands per-epoch drains
	quarantined   map[uint64]bool

	// lastErr is the error that last took the node down (nil once a
	// rebuild or snapshot succeeds); it is written under mu. needSnap
	// flags a detected digest mismatch awaiting snapshot repair; it
	// survives receiver lifetimes (see NeedSnapshot) and clears only when
	// a snapshot actually restores. Both are read without mu, so a
	// health scrape or a handshake never waits behind a feed or a
	// checkpoint.
	lastErr  atomic.Pointer[error]
	needSnap atomic.Bool

	state            atomic.Int32
	restarts         atomic.Int64
	nQuarant         atomic.Int64
	fallbacks        atomic.Int64
	digestMismatches atomic.Int64
	snapRestores     atomic.Int64

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	gState    *metrics.Gauge
	cRestarts *metrics.Counter
	cQuarant  *metrics.Counter
	cFallback *metrics.Counter
	cCkptErr  *metrics.Counter
	hRestore  *metrics.Histogram
	gLag      *metrics.Gauge
}

// NewSupervisor validates cfg and returns an unstarted supervisor.
func NewSupervisor(cfg Config) (*Supervisor, error) {
	if cfg.Spool == nil {
		return nil, errors.New("recovery: Config.Spool is required")
	}
	if cfg.Checkpoints == nil {
		return nil, errors.New("recovery: Config.Checkpoints is required")
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 5 * time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 8
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	reg := cfg.Metrics
	s := &Supervisor{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(seed)),
		quarantined: make(map[uint64]bool),
		stop:        make(chan struct{}),
		gState:      reg.Gauge("recovery_state"),
		cRestarts:   reg.Counter("recovery_restarts_total"),
		cQuarant:    reg.Counter("recovery_quarantined_total"),
		cFallback:   reg.Counter("recovery_ckpt_fallback_total"),
		cCkptErr:    reg.Counter("recovery_ckpt_errors_total"),
		hRestore:    reg.Histogram("recovery_restore_seconds"),
		gLag:        reg.Gauge("replay_lag_ts"),
	}
	s.recoverCond = sync.NewCond(&s.mu)
	return s, nil
}

// Start restores the node (newest valid checkpoint + spool tail) and
// launches the watchdog and checkpoint scheduler. It retries per the
// backoff/budget policy; an error means the supervisor is fatal.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("recovery: supervisor already started")
	}
	s.started = true
	s.loadQuarantineLocked()
	if err := s.recoverLocked(true); err != nil {
		return err
	}
	if s.cfg.ProbeInterval > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	if s.cfg.CheckpointInterval > 0 {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return nil
}

// Supervisor persists wire frames as received (compressed epochs are
// spooled compressed) — see FeedFrame.
var _ ship.FrameApplier = (*Supervisor)(nil)

// Feed implements ship.Applier: the epoch is made durable in the spool
// first (the ack the receiver sends after Feed returns is a durability
// promise), then applied to the node. A node failure triggers an
// in-line rebuild; only a fatal supervisor returns an error, which
// terminates the replication connection unacknowledged.
func (s *Supervisor) Feed(enc *epoch.Encoded) error {
	return s.feed(enc, func() error { return s.cfg.Spool.Append(enc) })
}

// FeedFrame implements ship.FrameApplier: identical to Feed, but the
// epoch is spooled as the exact frame that crossed the wire, so a
// compressed epoch stays compressed on disk and is only inflated when
// the spool replays it.
func (s *Supervisor) FeedFrame(flags byte, payload []byte, enc *epoch.Encoded) error {
	return s.feed(enc, func() error { return s.cfg.Spool.AppendWire(enc.Seq, flags, payload) })
}

func (s *Supervisor) feed(enc *epoch.Encoded, spool func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSpoolClosed
	}
	if s.State() == StateFatal {
		return ErrFatal
	}
	if err := spool(); err != nil {
		return err
	}
	if err := s.applyLocked(enc); err != nil {
		return err
	}
	s.sinceCkpt++
	if s.cfg.CheckpointEveryEpochs > 0 && s.sinceCkpt >= s.cfg.CheckpointEveryEpochs {
		if err := s.checkpointLocked(); err != nil {
			s.cCkptErr.Inc()
		}
	}
	return nil
}

// applyLocked feeds one epoch to the node, rebuilding on failure. The
// epoch is already spooled, so the rebuild replays it from disk.
func (s *Supervisor) applyLocked(enc *epoch.Encoded) error {
	if s.quarantined[enc.Seq] {
		return nil
	}
	if node := s.node.Load(); node != nil {
		err := node.Feed(enc)
		if err == nil && node.Err() == nil {
			return nil
		}
	}
	return s.recoverLocked(false)
}

// Heartbeat implements ship.Applier. Heartbeats carry no epoch payload
// and are not spooled.
func (s *Supervisor) Heartbeat(ts int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSpoolClosed
	}
	if s.State() == StateFatal {
		return ErrFatal
	}
	if node := s.node.Load(); node != nil {
		if err := node.Heartbeat(ts); err == nil && node.Err() == nil {
			return nil
		}
	}
	return s.recoverLocked(false)
}

// NextSeq is the replication resume cursor: every epoch below it is
// durable locally (spooled or contained in the restored checkpoint).
func (s *Supervisor) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.cfg.Spool.End()
	if node := s.node.Load(); node != nil {
		if n := node.NextSeq(); n > next {
			next = n
		}
	}
	return next
}

// Node returns the current node (nil while down: mid-rebuild, fatal or
// closed). The pointer changes across rebuilds and snapshot restores;
// callers should re-fetch rather than retain it. It never takes the
// supervisor's lock, so reads do not queue behind a feed or checkpoint.
func (s *Supervisor) Node() *htap.Node { return s.node.Load() }

// State returns the supervisor's coarse state.
func (s *Supervisor) State() State { return State(s.state.Load()) }

// setLastErr records err (nil clears it). Called with mu held.
func (s *Supervisor) setLastErr(err error) { s.lastErr.Store(&err) }

// lastError returns the recorded error without taking mu.
func (s *Supervisor) lastError() error {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats returns a snapshot of the supervisor's counters. It takes no
// lock.
func (s *Supervisor) Stats() Stats {
	st := Stats{
		State:            s.State(),
		Restarts:         s.restarts.Load(),
		Quarantined:      s.nQuarant.Load(),
		Fallbacks:        s.fallbacks.Load(),
		DigestMismatches: s.digestMismatches.Load(),
		SnapshotRestores: s.snapRestores.Load(),
	}
	if err := s.lastError(); err != nil {
		st.LastErr = err.Error()
	}
	return st
}

// Probe checks the node for an asynchronous fatal replay error and
// rebuilds if one surfaced. The watchdog calls it periodically; tests
// call it directly for determinism.
func (s *Supervisor) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.State() == StateFatal {
		return s.lastError()
	}
	if node := s.node.Load(); node != nil && node.Err() == nil {
		return nil
	}
	return s.recoverLocked(false)
}

// Checkpoint quiesces replay, cuts an atomic checkpoint and compacts
// the spool below the oldest retained checkpoint's cursor. Wire it to
// ship.ReceiverConfig.Drain so a clean end-of-stream leaves a durable
// resume point.
func (s *Supervisor) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSpoolClosed
	}
	return s.checkpointLocked()
}

func (s *Supervisor) checkpointLocked() error {
	node := s.node.Load()
	if node == nil {
		return errors.New("recovery: no live node to checkpoint")
	}
	var meta checkpoint.Meta
	_, err := s.cfg.Checkpoints.Write(func(w io.Writer) error {
		m, err := node.Checkpoint(w)
		meta = m
		return err
	})
	if err != nil {
		return err
	}
	s.sinceCkpt = 0
	s.lastCkpt = time.Now()
	// Compact drops dead epochs as soon as the cursor moves — including
	// the active segment's prefix. But only below the OLDEST
	// retained checkpoint's cursor: restore falls back across corrupt
	// checkpoints, and an older checkpoint is only usable while the spool
	// still covers [its cursor, End). Cursors of checkpoints written
	// before this process started are unknown, so compaction waits until
	// this lifetime has cut a full retention window (then the retained
	// set is exactly s.ckptCursors).
	retain := s.cfg.Checkpoints.Retain()
	s.ckptCursors = append(s.ckptCursors, meta.NextEpochSeq())
	if len(s.ckptCursors) > retain {
		s.ckptCursors = s.ckptCursors[len(s.ckptCursors)-retain:]
	}
	if len(s.ckptCursors) == retain {
		if _, err := s.cfg.Spool.Compact(s.ckptCursors[0]); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the watchdog and scheduler and closes the node. The spool
// and checkpoint manager are caller-owned and stay open.
func (s *Supervisor) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if node := s.node.Swap(nil); node != nil {
		return node.Close()
	}
	return nil
}

// recoverLocked rebuilds the node: restore the newest checkpoint that
// validates (falling back across corrupt ones), replay the spool tail,
// and retry the whole sequence with jittered exponential backoff up to
// the budget. A sequence that keeps failing is quarantined once it hits
// the QuarantineAfter threshold. Called with s.mu held; the lock is
// released around backoff sleeps.
func (s *Supervisor) recoverLocked(initial bool) error {
	// The lock is released during backoff sleeps, so a watchdog Probe or
	// a Feed could start a second recovery mid-flight: serialize, and
	// piggyback on the other recovery's outcome when it already ran.
	for s.recovering {
		s.recoverCond.Wait()
	}
	if s.closed {
		return ErrSpoolClosed
	}
	if node := s.node.Load(); node != nil && node.Err() == nil {
		return nil // another caller already rebuilt the node
	}
	if s.State() == StateFatal {
		return ErrFatal
	}
	s.recovering = true
	defer func() {
		s.recovering = false
		s.recoverCond.Broadcast()
	}()

	start := time.Now()
	for attempt := 0; attempt < s.cfg.RetryBudget; attempt++ {
		if attempt > 0 {
			delay := s.backoff(attempt - 1)
			s.mu.Unlock()
			select {
			case <-time.After(delay):
			case <-s.stop:
				s.mu.Lock()
				s.setLastErr(ErrSpoolClosed)
				return ErrSpoolClosed
			}
			s.mu.Lock()
			if s.closed {
				s.setLastErr(ErrSpoolClosed)
				return ErrSpoolClosed
			}
		}
		if old := s.node.Swap(nil); old != nil {
			_ = old.Close()
		}
		node, meta, err := s.restoreBest()
		if err != nil {
			s.setLastErr(err)
			continue
		}
		// The checkpoint can be ahead of the spool (spool truncated by a
		// corruption, epochs contained in the checkpoint): realign so the
		// resume cursor is appendable.
		if err := s.cfg.Spool.AlignTo(meta.NextEpochSeq()); err != nil {
			node.Close()
			s.setLastErr(err)
			continue
		}
		// After the first failure, pinpoint: drain per epoch so the
		// failing sequence is attributed exactly.
		pinpoint := s.forcePinpoint || s.failCount > 0 || attempt > 0
		badSeq, err := s.replaySpool(node, meta.NextEpochSeq(), pinpoint)
		if err != nil {
			node.Close()
			s.setLastErr(err)
			if pinpoint {
				if s.failCount > 0 && badSeq == s.failSeq {
					s.failCount++
				} else {
					s.failSeq, s.failCount = badSeq, 1
				}
			} else {
				// Unattributed failure: force pinpointing next round.
				s.forcePinpoint = true
			}
			continue
		}
		s.node.Store(node)
		s.failCount = 0
		s.forcePinpoint = false
		s.setLastErr(nil)
		if !initial {
			s.restarts.Add(1)
			s.cRestarts.Inc()
		}
		if s.nQuarant.Load() > 0 {
			s.setState(StateDegraded)
		} else {
			s.setState(StateRunning)
		}
		s.hRestore.Observe(time.Since(start))
		return nil
	}
	s.setState(StateFatal)
	if s.lastError() == nil {
		s.setLastErr(ErrFatal)
	}
	return fmt.Errorf("%w (last error: %v)", ErrFatal, s.lastError())
}

// restoreBest builds a node from the newest checkpoint that passes
// validation, falling back across ErrCorrupt ones; with no usable
// checkpoint it builds a fresh node (the spool replays from 0).
func (s *Supervisor) restoreBest() (*htap.Node, checkpoint.Meta, error) {
	paths, err := s.cfg.Checkpoints.List()
	if err != nil {
		return nil, checkpoint.Meta{}, err
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			s.fallbacks.Add(1)
			s.cFallback.Inc()
			continue
		}
		node, meta, err := htap.RestoreNode(f, s.cfg.Kind, s.cfg.Plan, s.cfg.Node)
		f.Close()
		if err == nil {
			return node, meta, nil
		}
		if errors.Is(err, checkpoint.ErrCorrupt) {
			s.fallbacks.Add(1)
			s.cFallback.Inc()
			continue
		}
		return nil, checkpoint.Meta{}, err
	}
	node, err := htap.NewNode(s.cfg.Kind, s.cfg.Plan, s.cfg.Node)
	return node, checkpoint.Meta{}, err
}

// replaySpool replays the spool tail from seq `from` into node. With
// pinpoint, every epoch is drained individually so a failure names its
// sequence; otherwise the drain happens once at the end (fast path).
// Epochs at or past the quarantine threshold are quarantined and
// skipped with a visibility-only dummy epoch.
func (s *Supervisor) replaySpool(node *htap.Node, from uint64, pinpoint bool) (badSeq uint64, err error) {
	lastFed := from
	ferr := s.cfg.Spool.Replay(from, func(enc *epoch.Encoded) error {
		lastFed = enc.Seq
		if s.quarantined[enc.Seq] {
			return s.skipEpoch(node, enc)
		}
		if enc.Seq == s.failSeq && s.failCount >= s.cfg.QuarantineAfter {
			if qerr := s.quarantineLocked(enc); qerr != nil {
				return qerr
			}
			return s.skipEpoch(node, enc)
		}
		if err := node.Feed(enc); err != nil {
			return err
		}
		if pinpoint {
			node.Drain()
			if err := node.Err(); err != nil {
				return err
			}
		}
		return nil
	})
	if ferr != nil {
		return lastFed, ferr
	}
	node.Drain()
	if err := node.Err(); err != nil {
		return lastFed, err
	}
	return 0, nil
}

// skipEpoch advances the node's cursor and visibility past a
// quarantined epoch without replaying its payload.
func (s *Supervisor) skipEpoch(node *htap.Node, enc *epoch.Encoded) error {
	return node.Feed(&epoch.Encoded{Seq: enc.Seq, LastCommitTS: enc.LastCommitTS})
}

// quarantineLocked writes the poison epoch's frame to a sidecar file in
// the spool dir and marks its sequence skipped.
func (s *Supervisor) quarantineLocked(enc *epoch.Encoded) error {
	path := filepath.Join(s.cfg.Spool.cfg.Dir,
		fmt.Sprintf("%s%020d.epoch", quarantinePrefix, enc.Seq))
	frame := ship.AppendFrame(nil, ship.KindEpoch, 0, ship.EncodeEpoch(enc))
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		return err
	}
	s.quarantined[enc.Seq] = true
	s.failSeq, s.failCount = 0, 0
	s.nQuarant.Add(1)
	s.cQuarant.Inc()
	s.setState(StateDegraded)
	return nil
}

// loadQuarantineLocked restores the quarantine set from sidecar files,
// so a restart does not pay the failure budget for an already-known
// poison epoch again.
func (s *Supervisor) loadQuarantineLocked() {
	ents, err := os.ReadDir(s.cfg.Spool.cfg.Dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		seq, ok := parseQuarantineSeq(de.Name())
		if !ok {
			continue
		}
		s.quarantined[seq] = true
	}
	if len(s.quarantined) > 0 {
		s.nQuarant.Store(int64(len(s.quarantined)))
		s.setState(StateDegraded)
	}
}

func (s *Supervisor) setState(st State) {
	s.state.Store(int32(st))
	s.gState.Set(float64(st))
}

// backoff returns the jittered exponential rebuild delay. Called with
// s.mu held (the rng is guarded by it). ship.Backoff clamps the shift
// so a long outage's retry count cannot overflow the duration back
// into a tiny (or negative-masked) delay.
func (s *Supervisor) backoff(retry int) time.Duration {
	d := ship.Backoff(s.cfg.RetryBase, s.cfg.RetryMax, retry)
	half := int64(d / 2)
	return time.Duration(half + s.rng.Int63n(half+1))
}

// watchdog periodically probes for asynchronous replay failures.
func (s *Supervisor) watchdog() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.Probe()
		}
	}
}

// checkpointLoop cuts time-based checkpoints while epochs are arriving.
func (s *Supervisor) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.node.Load() != nil && s.sinceCkpt > 0 &&
				time.Since(s.lastCkpt) >= s.cfg.CheckpointInterval {
				if err := s.checkpointLocked(); err != nil {
					s.cCkptErr.Inc()
				}
			}
			s.mu.Unlock()
		}
	}
}

// Health returns the obsrv health report: running and degraded serve
// 200 (a degraded replica still answers queries), fatal serves 503.
// Call it from obsrv.Options.Health; it refreshes replay_lag_ts. It
// takes no lock, so a scrape never waits behind a feed or a checkpoint.
func (s *Supervisor) Health() obsrv.Health {
	st := s.State()
	h := obsrv.Health{
		Healthy:          st != StateFatal,
		Status:           st.String(),
		Supervisor:       st.String(),
		Degraded:         st == StateDegraded,
		Restarts:         s.restarts.Load(),
		Quarantined:      s.nQuarant.Load(),
		DigestMismatches: s.digestMismatches.Load(),
		SnapshotRestores: s.snapRestores.Load(),
	}
	if st == StateRunning {
		h.Status = "ok"
	}
	if err := s.lastError(); err != nil {
		h.Err = err.Error()
	}
	if node := s.node.Load(); node != nil {
		h.VisibleTS = node.VisibleTS()
		h.PrimaryTS = node.PrimaryTS()
		h.ReplayLagTS = node.ReplayLag()
		s.gLag.Set(float64(h.ReplayLagTS))
	}
	return h
}
