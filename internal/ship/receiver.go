package ship

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"aets/internal/epoch"
)

// Applier consumes the replicated stream on the backup. *htap.Node
// satisfies it.
type Applier interface {
	// Feed applies one epoch; the receiver guarantees strictly
	// sequential, gap-free, duplicate-free delivery. An error (the
	// applier was stopped) terminates the connection. The applier keeps
	// the epoch's Buf, which the receiver allocated for this frame alone
	// and never touches again (the contract is on epoch.Encoded).
	Feed(*epoch.Encoded) error
	// Heartbeat advances visibility on an idle stream (the paper's
	// dummy-log epoch) without consuming an epoch sequence number.
	Heartbeat(ts int64) error
}

// FrameApplier is an optional Applier extension for consumers that
// persist the stream (the recovery supervisor's spool):
// the receiver hands over the wire frame alongside the decoded epoch,
// so a compressed frame can be stored as received instead of being
// inflated and re-deflated.
type FrameApplier interface {
	Applier
	// FeedFrame applies one epoch, also supplying the raw EPOCH frame
	// payload and its header flags. payload is freshly allocated per
	// frame and owned by the callee after the call; for uncompressed
	// frames enc.Buf aliases payload, so the callee may read payload (to
	// spool it) but, under epoch.Encoded's contract, never write to it.
	FeedFrame(flags byte, payload []byte, enc *epoch.Encoded) error
}

// ReceiverConfig configures the backup side of a replication link.
type ReceiverConfig struct {
	// Schema is the workload schema hash the sender must present.
	Schema uint64
	// Resume is the initial cursor: the next epoch sequence expected.
	// A backup restored from a checkpoint passes meta.LastEpochSeq+1
	// (htap.Node.NextSeq does this); a fresh backup passes 0.
	Resume uint64
	// Applier receives the ordered epochs. Required.
	Applier Applier
	// AckEvery batches cumulative acks: one every N applied epochs. The
	// receiver additionally acks whenever its input buffer drains, so a
	// blocked sender is never starved of the ack it waits for.
	// Default 1.
	AckEvery int
	// Drain, when set, is called before the final ack of a clean
	// end-of-stream — the hook where the backup quiesces replay and cuts
	// its checkpoint, making the resume cursor durable.
	Drain func() error
	// Metrics receives the duplicate counter; nil registers the default
	// names in metrics.Default.
	Metrics *Metrics
	// Compress advertises CapFlate in the WELCOME, permitting senders
	// that also advertise it to ship compressed EPOCH frames.
	Compress bool
	// NeedSnapshot, when set, is consulted at every handshake alongside
	// the receiver's own repair flag: returning true makes the WELCOME
	// request an immediate snapshot. It lets a durable component (the
	// recovery supervisor) carry a detected-divergence flag across
	// receiver lifetimes, so a repair request survives process
	// restarts between detection and the next handshake.
	NeedSnapshot func() bool
}

// ReceiverStats is a point-in-time view of a receiver's progress.
type ReceiverStats struct {
	Cursor            uint64 // next epoch sequence expected
	Txns              int64  // transactions applied
	Entries           int64  // DML entries applied
	Duplicates        int64  // epochs dropped as already applied
	SnapshotsRestored int64  // catch-up snapshots validated and installed
}

// Receiver is the backup side of a replication link: it answers the
// resume handshake with its cursor, validates and orders incoming
// epochs (dropping redelivered ones, rejecting gaps), feeds them to the
// Applier and returns cumulative acknowledgements. One Receiver serves
// any number of consecutive sender connections; the cursor carries
// across them.
type Receiver struct {
	cfg ReceiverConfig
	m   *Metrics

	serveMu sync.Mutex // one active connection at a time

	mu       sync.Mutex
	cursor   uint64
	txns     int64
	entries  int64
	dups     int64
	restored int64
	// needSnap records a digest mismatch awaiting repair: the next
	// WELCOME to a snapshot-capable sender carries ReqSnapshot, and a
	// successful restore clears it.
	needSnap bool
}

// NewReceiver returns a Receiver starting at cfg.Resume. A nil Applier
// is an error, not a panic, so embedding programs surface wiring
// mistakes through their normal error paths.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Applier == nil {
		return nil, fmt.Errorf("ship: ReceiverConfig.Applier is required")
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	return &Receiver{cfg: cfg, m: cfg.Metrics, cursor: cfg.Resume}, nil
}

// capsOffered is the capability bitset this receiver advertises in its
// WELCOME.
func (r *Receiver) capsOffered() uint64 {
	var caps uint64
	if r.cfg.Compress {
		caps |= CapFlate
	}
	// Snapshot catch-up is offered exactly when the applier can restore
	// one; advertising it without the ability would strand the link
	// mid-stream.
	if _, ok := r.cfg.Applier.(SnapshotApplier); ok {
		caps |= CapSnapshot
	}
	return caps
}

// Cursor returns the next epoch sequence the receiver expects.
func (r *Receiver) Cursor() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursor
}

// Stats returns a snapshot of the receiver's progress.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReceiverStats{Cursor: r.cursor, Txns: r.txns, Entries: r.entries,
		Duplicates: r.dups, SnapshotsRestored: r.restored}
}

// Serve handles one sender connection until it ends. done is true on a
// clean end-of-stream (EOS); false with a nil error means the
// connection dropped at a frame boundary and the sender may reconnect.
// Overlapping connections serialize: a second Serve blocks until the
// first returns.
func (r *Receiver) Serve(conn net.Conn) (done bool, err error) {
	r.serveMu.Lock()
	defer r.serveMu.Unlock()
	defer conn.Close()
	r.m.Connected.Set(1)
	defer r.m.Connected.Set(0)

	br := bufio.NewReaderSize(conn, 1<<20)
	bw := bufio.NewWriterSize(conn, 1<<12)

	kind, payload, err := ReadFrame(br)
	if err != nil {
		return false, fmt.Errorf("ship: handshake: %w", err)
	}
	if kind != KindHello {
		return false, fmt.Errorf("%w: expected HELLO, got kind %d", ErrCorrupt, kind)
	}
	schema, senderCaps, err := parseHello(payload)
	if err != nil {
		return false, err
	}
	// Capabilities are the per-connection intersection of what both
	// ends advertise.
	caps := r.capsOffered()
	negotiated := senderCaps & caps
	// Always answer with our schema and cursor; on a mismatch the sender
	// reads the WELCOME, sees the foreign schema, and aborts permanently
	// instead of retrying a doomed link.
	if err := r.welcome(bw, caps, negotiated); err != nil {
		return false, err
	}
	if schema != r.cfg.Schema {
		return false, fmt.Errorf("%w: sender %016x, receiver %016x", ErrSchemaMismatch, schema, r.cfg.Schema)
	}

	// A failed ack write means the sender is gone or going — but frames
	// already received (possibly including EOS) are still worth applying:
	// they are durable here, and anything the sender never saw acked is
	// redelivered after reconnect and deduped. Park the first ack error
	// and keep draining the read side.
	var ackErr error
	ack := func() {
		if ackErr == nil {
			ackErr = r.sendAck(bw)
		}
	}

	sinceAck := 0
	for {
		kind, flags, payload, err := ReadFrameFlags(br)
		if err == io.EOF {
			// Dropped between frames; the sender may resume. Surface a
			// parked ack failure so the caller logs why the link died.
			return false, ackErr
		}
		if err != nil {
			return false, err
		}
		switch kind {
		case KindEpoch:
			if flags&FlagCompressed != 0 && negotiated&CapFlate == 0 {
				return false, fmt.Errorf("%w: compressed epoch without negotiated capability", ErrCorrupt)
			}
			// seq sits in the clear epoch header, so a redelivered or
			// out-of-order epoch is settled before its buf is inflated.
			if len(payload) < epochHdrSize {
				return false, fmt.Errorf("%w: epoch payload %d bytes", ErrCorrupt, len(payload))
			}
			seq := binary.LittleEndian.Uint64(payload)
			r.mu.Lock()
			switch {
			case seq < r.cursor:
				// Redelivered after a mid-window reconnect: drop, but ack so
				// the sender retires it.
				r.dups++
				r.m.Duplicates.Inc()
				r.mu.Unlock()
				ack()
				continue
			case seq > r.cursor:
				want := r.cursor
				r.mu.Unlock()
				return false, fmt.Errorf("%w: got epoch %d, want %d", ErrGap, seq, want)
			}
			r.mu.Unlock()
			enc, err := DecodeEpochFrame(flags, payload)
			if err != nil {
				return false, err
			}
			// Apply before advancing: a failed Feed must leave the cursor
			// pointing at this epoch, so the next handshake redelivers it
			// instead of telling the sender to skip an epoch that was never
			// applied. Serve connections serialize on serveMu, so nothing
			// else can race the cursor between the check and the advance.
			// A FrameApplier additionally gets the wire frame, so a spool
			// can persist a compressed epoch as received.
			var ferr error
			if fa, ok := r.cfg.Applier.(FrameApplier); ok {
				ferr = fa.FeedFrame(flags, payload, enc)
			} else {
				ferr = r.cfg.Applier.Feed(enc)
			}
			if ferr != nil {
				return false, fmt.Errorf("ship: applier: %w", ferr)
			}
			r.mu.Lock()
			r.cursor = enc.Seq + 1
			r.txns += int64(enc.TxnCount)
			r.entries += int64(enc.EntryCount)
			r.mu.Unlock()
			sinceAck++
			if sinceAck >= r.cfg.AckEvery || br.Buffered() == 0 {
				ack()
				sinceAck = 0
			}
		case KindHeartbeat:
			ts, err := parseHeartbeat(payload)
			if err != nil {
				return false, err
			}
			if err := r.cfg.Applier.Heartbeat(ts); err != nil {
				return false, fmt.Errorf("ship: applier: %w", err)
			}
			// Keep the sender's ack cursor and lag gauge fresh while idle.
			ack()
			sinceAck = 0
		case KindSnapBegin:
			if negotiated&CapSnapshot == 0 {
				return false, fmt.Errorf("%w: snapshot frame without negotiated capability", ErrCorrupt)
			}
			snapCursor, claim, err := parseSnapBegin(payload)
			if err != nil {
				return false, err
			}
			if err := r.restoreSnapshot(br, snapCursor, claim); err != nil {
				return false, err
			}
			ack()
			sinceAck = 0
		case KindSnapChunk, KindSnapEnd:
			// Chunks and trailers are consumed by the SNAPBEGIN handler's
			// stream reader; loose ones mean the sender lost its place.
			return false, fmt.Errorf("%w: snapshot frame kind %d outside a snapshot stream", ErrCorrupt, kind)
		case KindDigest:
			if negotiated&CapSnapshot == 0 {
				return false, fmt.Errorf("%w: digest frame without negotiated capability", ErrCorrupt)
			}
			seq, ts, digest, err := parseDigest(payload)
			if err != nil {
				return false, err
			}
			if err := r.verifyDigest(seq, ts, digest); err != nil {
				return false, err
			}
		case KindEOS:
			if r.cfg.Drain != nil {
				if err := r.cfg.Drain(); err != nil {
					return false, err
				}
			}
			// Best-effort final ack: the stream is complete and durable
			// locally whether or not the sender is still there to read it.
			_ = r.sendAck(bw)
			return true, nil
		default:
			return false, fmt.Errorf("%w: unexpected frame kind %d", ErrCorrupt, kind)
		}
	}
}

// restoreSnapshot consumes one SNAPBEGIN..SNAPEND sequence from br and
// installs it through the SnapshotApplier. The applier must read the
// stream through EOF — the stream reader returns EOF only after the
// SNAPEND byte count and CRC validate, so nothing installs from a torn
// or corrupt transfer. Any failure leaves the cursor (and, per the
// applier contract, the applier's prior state) unchanged: the link
// drops and the sender's next handshake restarts the transfer from
// scratch.
func (r *Receiver) restoreSnapshot(br *bufio.Reader, snapCursor, claim uint64) error {
	sr := newSnapReader(br, claim)
	r.mu.Lock()
	cur, needSnap := r.cursor, r.needSnap
	r.mu.Unlock()
	if snapCursor < cur || (snapCursor == cur && !needSnap) {
		// Local state already covers the snapshot (the sender raced a
		// reconnect): discard the stream, keep what we have. An
		// equal-cursor snapshot installs only when this receiver flagged
		// itself for repair — that is exactly the anti-entropy case,
		// where the cursors agree but the state does not.
		return sr.drain()
	}
	sa, ok := r.cfg.Applier.(SnapshotApplier)
	if !ok {
		// Unreachable when capability negotiation is honest; a sender
		// that streams anyway loses the link.
		return ErrSnapshotUnsupported
	}
	size := int64(-1)
	if claim != 0 {
		size = int64(claim)
	}
	if err := sa.RestoreSnapshot(snapCursor, size, sr); err != nil {
		return fmt.Errorf("ship: snapshot restore: %w", err)
	}
	// Belt and suspenders for appliers that stopped reading early: the
	// stream only counts once the trailer validates.
	if err := sr.drain(); err != nil {
		return err
	}
	r.mu.Lock()
	r.cursor = snapCursor
	r.needSnap = false
	r.restored++
	r.mu.Unlock()
	r.m.SnapshotsRestored.Inc()
	return nil
}

// verifyDigest runs one anti-entropy comparison. Digests are only
// comparable when this receiver has applied exactly the epochs the
// digest covers; anything else (no verifier, digest raced a reconnect)
// is skipped, not failed — the next aligned digest still guards the
// stream. A mismatch marks the receiver for repair and drops the link;
// the next handshake's WELCOME requests the snapshot.
func (r *Receiver) verifyDigest(seq uint64, ts int64, digest uint64) error {
	da, ok := r.cfg.Applier.(DigestApplier)
	if !ok {
		return nil
	}
	r.mu.Lock()
	cur := r.cursor
	r.mu.Unlock()
	if cur != seq {
		return nil
	}
	if err := da.VerifyDigest(seq, ts, digest); err != nil {
		if errors.Is(err, ErrDigestMismatch) {
			r.m.DigestMismatches.Inc()
			r.mu.Lock()
			r.needSnap = true
			r.mu.Unlock()
		}
		return fmt.Errorf("ship: digest %d: %w", seq, err)
	}
	r.m.DigestsVerified.Inc()
	return nil
}

func (r *Receiver) sendAck(bw *bufio.Writer) error {
	r.mu.Lock()
	cur := r.cursor
	r.mu.Unlock()
	if err := WriteFrame(bw, KindAck, appendCursor(nil, cur)); err != nil {
		return err
	}
	return bw.Flush()
}

// welcome writes the WELCOME frame carrying schema, cursor and this
// receiver's capability bitset caps. The request bits ask for immediate
// repair only on a link that negotiated CapSnapshot: a sender that
// cannot serve a snapshot treats the request as an unbridgeable gap.
func (r *Receiver) welcome(bw *bufio.Writer, caps, negotiated uint64) error {
	r.mu.Lock()
	cur := r.cursor
	need := r.needSnap
	r.mu.Unlock()
	if !need && r.cfg.NeedSnapshot != nil {
		need = r.cfg.NeedSnapshot()
	}
	var req uint64
	if need && negotiated&CapSnapshot != 0 {
		req |= ReqSnapshot
	}
	if err := WriteFrame(bw, KindWelcome, appendWelcome(nil, r.cfg.Schema, cur, caps, req)); err != nil {
		return err
	}
	return bw.Flush()
}
