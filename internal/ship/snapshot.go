package ship

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrDigestMismatch marks anti-entropy divergence: the receiver's
// committed-state digest differs from the sender's at the same cursor.
// The receiver answers it by requesting a repair snapshot on its next
// handshake.
var ErrDigestMismatch = errors.New("ship: state digest mismatch")

// ErrSnapshotUnsupported is returned when a link needs a snapshot the
// peer cannot serve or apply (no source configured, or the capability
// was not negotiated). It is permanent for the connection but not for
// the sender: an operator can re-seed the receiver out of band.
var ErrSnapshotUnsupported = errors.New("ship: snapshot catch-up unsupported on this link")

// SnapshotSource serves full-state snapshots for catch-up. The primary
// uses the live node's checkpoint cut.
type SnapshotSource interface {
	// Snapshot returns a consistent full-state snapshot stream and the
	// cursor it covers (the next epoch sequence after the snapshot).
	// Contract: the snapshot must cover every epoch already offered to
	// the sender's Send, so retiring pending epochs below the returned
	// cursor loses nothing. The caller closes rc.
	Snapshot() (cursor uint64, size int64, rc io.ReadCloser, err error)
}

// SnapshotApplier is an optional Applier extension for receivers that
// can restore a full-state snapshot. A receiver whose Applier
// implements it advertises CapSnapshot in its WELCOME.
type SnapshotApplier interface {
	Applier
	// RestoreSnapshot replaces the applier's state with the snapshot
	// read from r (size is a hint, -1 when unknown). Implementations
	// must validate the stream fully before installing anything: on any
	// error the prior state must remain intact and queryable. After a
	// nil return the receiver's cursor becomes cursor.
	RestoreSnapshot(cursor uint64, size int64, r io.Reader) error
}

// DigestApplier is an optional Applier extension for receivers that
// can verify anti-entropy digests. VerifyDigest is called only when
// the receiver's cursor equals seq, i.e. both ends have applied
// exactly the epochs [0, seq).
type DigestApplier interface {
	// VerifyDigest compares the local committed-state digest against
	// the sender's. A mismatch returns ErrDigestMismatch (possibly
	// wrapped); any error terminates the connection.
	VerifyDigest(seq uint64, ts int64, digest uint64) error
}

// snapChunkSize is the sender's chunk granularity; well under
// MaxSnapChunk so the receiver's per-chunk bound never trips on our
// own streams.
const snapChunkSize = 256 << 10

// snapReader adapts the SNAPCHUNK frame sequence following a SNAPBEGIN
// into an io.Reader for SnapshotApplier.RestoreSnapshot. It validates
// per-chunk bounds as frames arrive and the whole-stream byte count
// and CRC against the SNAPEND trailer; the trailer must be consumed
// (Read through io.EOF, or drain) for the stream to count as complete.
type snapReader struct {
	br       *bufio.Reader
	expected uint64 // SNAPBEGIN's total claim; 0 = unknown
	buf      []byte
	crc      uint32
	total    uint64
	done     bool
	err      error
}

func newSnapReader(br *bufio.Reader, expected uint64) *snapReader {
	return &snapReader{br: br, expected: expected}
}

func (sr *snapReader) Read(p []byte) (int, error) {
	for len(sr.buf) == 0 {
		if sr.err != nil {
			return 0, sr.err
		}
		if sr.done {
			return 0, io.EOF
		}
		if err := sr.next(); err != nil {
			sr.err = err
			return 0, err
		}
	}
	n := copy(p, sr.buf)
	sr.buf = sr.buf[n:]
	return n, nil
}

// next consumes one frame of the snapshot stream.
func (sr *snapReader) next() error {
	kind, payload, err := ReadFrame(sr.br)
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("%w: connection dropped mid-snapshot", ErrShortFrame)
		}
		return err
	}
	switch kind {
	case KindSnapChunk:
		if len(payload) == 0 || len(payload) > MaxSnapChunk {
			return fmt.Errorf("%w: snapshot chunk %d bytes", ErrCorrupt, len(payload))
		}
		sr.crc = crc32.Update(sr.crc, castagnoli, payload)
		sr.total += uint64(len(payload))
		if sr.expected != 0 && sr.total > sr.expected {
			return fmt.Errorf("%w: snapshot overran claimed %d bytes", ErrCorrupt, sr.expected)
		}
		sr.buf = payload
	case KindSnapEnd:
		total, crc, err := parseSnapEnd(payload)
		if err != nil {
			return err
		}
		if total != sr.total || crc != sr.crc {
			return fmt.Errorf("%w: snapshot trailer total/crc mismatch", ErrCorrupt)
		}
		if sr.expected != 0 && sr.total != sr.expected {
			return fmt.Errorf("%w: snapshot %d bytes, SNAPBEGIN claimed %d", ErrCorrupt, sr.total, sr.expected)
		}
		sr.done = true
	default:
		return fmt.Errorf("%w: frame kind %d inside snapshot stream", ErrCorrupt, kind)
	}
	return nil
}

// drain consumes the rest of the stream through the SNAPEND trailer so
// the trailer's integrity check runs even when the applier stopped
// reading early, and returns nil only for a complete, valid stream.
func (sr *snapReader) drain() error {
	if _, err := io.Copy(io.Discard, sr); err != nil {
		return err
	}
	if !sr.done {
		return fmt.Errorf("%w: snapshot stream incomplete", ErrCorrupt)
	}
	return nil
}
