package recovery

// snapshot.go is the supervisor side of wire-level snapshot catch-up
// and anti-entropy (ship.CapSnapshot). A supervised replica can have
// its whole state replaced by a snapshot streamed from upstream — the
// path a replica takes when its resume cursor predates the sender's
// retained history, or when a state-digest comparison caught silent
// divergence.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"aets/internal/htap"
	"aets/internal/ship"
)

// The supervisor restores snapshots and verifies digests.
var (
	_ ship.SnapshotApplier = (*Supervisor)(nil)
	_ ship.DigestApplier   = (*Supervisor)(nil)
)

// RestoreSnapshot implements ship.SnapshotApplier: it replaces the
// replica's entire durable state with the snapshot. The stream is
// staged to a temp file and validated end to end (the checkpoint
// format's own CRC, via an actual node build) before anything durable
// changes; a torn or corrupt transfer therefore leaves the previous
// node running, the spool intact and the cursor unmoved — the sender
// simply restarts the transfer on its next connection. On success the
// snapshot is installed as a durable checkpoint, the spool realigns to
// the snapshot cursor, the node is swapped, and quarantined sequences
// the snapshot supersedes are healed (their transactions are in the
// snapshot, so the replica may leave Degraded).
func (s *Supervisor) RestoreSnapshot(cursor uint64, size int64, r io.Reader) error {
	// Stage and validate outside the lock: the copy can be large, and a
	// torn transfer must not stall Health/Stats or the watchdog. The
	// receiver serializes RestoreSnapshot against Feed, so no epoch
	// races the staging.
	tmp, err := os.CreateTemp(s.cfg.Spool.cfg.Dir, "snapshot-inbound-*.tmp")
	if err != nil {
		return err
	}
	defer tmp.Close()
	_ = os.Remove(tmp.Name()) // unlinked: a crash mid-stage leaks nothing
	if _, err := io.Copy(tmp, r); err != nil {
		return fmt.Errorf("recovery: snapshot stage: %w", err)
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		return err
	}
	node, meta, err := htap.RestoreNode(tmp, s.cfg.Kind, s.cfg.Plan, s.cfg.Node)
	if err != nil {
		return fmt.Errorf("recovery: snapshot validate: %w", err)
	}
	if got := meta.NextEpochSeq(); got != cursor {
		_ = node.Close()
		return fmt.Errorf("recovery: snapshot cursor %d, checkpoint resumes at %d", cursor, got)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// An in-flight rebuild (watchdog probe mid-backoff) would stomp the
	// swapped node when it resumed; wait it out like recoverLocked does.
	for s.recovering {
		s.recoverCond.Wait()
	}
	if s.closed {
		_ = node.Close()
		return ErrSpoolClosed
	}
	// Durability first: once the checkpoint is installed, a crash at any
	// later point restores from it. Write streams from the staged file.
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		_ = node.Close()
		return err
	}
	if _, err := s.cfg.Checkpoints.Write(func(w io.Writer) error {
		_, cerr := io.Copy(w, tmp)
		return cerr
	}); err != nil {
		_ = node.Close()
		return fmt.Errorf("recovery: snapshot install: %w", err)
	}
	// The spool's history below the snapshot is superseded; realign so
	// the next received epoch (cursor) is appendable.
	if err := s.cfg.Spool.AlignTo(cursor); err != nil {
		_ = node.Close()
		return err
	}
	// Publish the new node before closing the old one: a routed read
	// parked on the old node wakes when it closes and must find its
	// successor already in place.
	if old := s.node.Swap(node); old != nil {
		_ = old.Close()
	}
	s.sinceCkpt = 0
	s.lastCkpt = time.Now()
	// The installed snapshot is a retained checkpoint cut this lifetime;
	// track its cursor for the compaction window like any other cut.
	retain := s.cfg.Checkpoints.Retain()
	s.ckptCursors = append(s.ckptCursors, cursor)
	if len(s.ckptCursors) > retain {
		s.ckptCursors = s.ckptCursors[len(s.ckptCursors)-retain:]
	}
	s.failSeq, s.failCount = 0, 0
	s.forcePinpoint = false
	s.setLastErr(nil)
	s.needSnap.Store(false)
	s.clearQuarantineBelowLocked(cursor)
	if len(s.quarantined) == 0 {
		s.setState(StateRunning)
	} else {
		s.setState(StateDegraded)
	}
	s.snapRestores.Add(1)
	return nil
}

// clearQuarantineBelowLocked heals quarantined sequences a restored
// snapshot supersedes: their transactions are contained in the
// snapshot, so the sidecars (and the degradation they caused) are
// obsolete.
func (s *Supervisor) clearQuarantineBelowLocked(cursor uint64) {
	for seq := range s.quarantined {
		if seq >= cursor {
			continue
		}
		delete(s.quarantined, seq)
		_ = os.Remove(filepath.Join(s.cfg.Spool.cfg.Dir,
			fmt.Sprintf("%s%020d.epoch", quarantinePrefix, seq)))
	}
	s.nQuarant.Store(int64(len(s.quarantined)))
}

// VerifyDigest implements ship.DigestApplier: it compares the sender's
// committed-state digest against the local node's at the same cursor.
// A mismatch — silent divergence or at-rest corruption that slipped
// past every CRC, or a quarantine hole this replica is carrying —
// flags the replica for snapshot repair (the next handshake's WELCOME
// requests it) and reports ship.ErrDigestMismatch.
func (s *Supervisor) VerifyDigest(seq uint64, _ int64, digest uint64) error {
	node := s.node.Load()
	if node == nil || node.NextSeq() != seq {
		// Not comparable at this instant; the next aligned digest still
		// guards the stream.
		return nil
	}
	local := node.StateDigest()
	if local == digest {
		return nil
	}
	s.needSnap.Store(true)
	s.digestMismatches.Add(1)
	return fmt.Errorf("%w: local %016x, sender %016x at cursor %d",
		ship.ErrDigestMismatch, local, digest, seq)
}

// NeedSnapshot reports whether a digest mismatch awaits snapshot
// repair. Wire it to ship.ReceiverConfig.NeedSnapshot so the repair
// request survives receiver (and process) lifetimes until a snapshot
// actually lands. It takes no lock, so the receiver's WELCOME does not
// wait behind a feed or a checkpoint.
func (s *Supervisor) NeedSnapshot() bool { return s.needSnap.Load() }

// parseQuarantineSeq extracts the sequence from a quarantine sidecar
// filename, or false if the name is not one.
func parseQuarantineSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, quarantinePrefix) || !strings.HasSuffix(name, ".epoch") {
		return 0, false
	}
	seq, err := strconv.ParseUint(
		strings.TrimSuffix(strings.TrimPrefix(name, quarantinePrefix), ".epoch"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}
