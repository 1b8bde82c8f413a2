package cluster

import (
	"io"
	"sync"

	"aets/internal/epoch"
	"aets/internal/ship"
)

// Relay makes a replica an interior node of a replication tree: it
// applies the incoming stream locally (to its node or recovery
// supervisor) and re-ships every epoch downstream through a Fanout.
// Wire it as the ship.Receiver's Applier in place of the node itself.
//
// An epoch is forwarded only after the local apply accepted it, so a
// relay's ack upstream means "durable here", and its downstream cursor
// can never run ahead of its own state. Downstream failures do not
// poison the relay's own replication: they are recorded (Err, Fanout
// stats) while the local apply keeps going — a leaf outage should not
// sever the whole subtree's feed.
type Relay struct {
	inner ship.Applier
	out   *Fanout

	mu      sync.Mutex
	downErr error
}

var (
	_ ship.Applier      = (*Relay)(nil)
	_ ship.FrameApplier = (*Relay)(nil)
)

// NewRelay wraps the local applier with downstream re-shipping.
func NewRelay(inner ship.Applier, out *Fanout) *Relay {
	return &Relay{inner: inner, out: out}
}

// Feed implements ship.Applier: apply locally, then forward.
func (r *Relay) Feed(enc *epoch.Encoded) error {
	if err := r.inner.Feed(enc); err != nil {
		return err
	}
	r.forward(enc)
	return nil
}

// FeedFrame implements ship.FrameApplier: a frame-aware inner applier
// (a recovery supervisor spooling wire frames) gets the frame as
// received; downstream forwarding always uses the decoded epoch, since
// each downstream peer negotiates its own capabilities — one stale
// downstream peer must not force the whole subtree raw. The downstream
// fan-out re-frames the epoch once per form its peers use, shared by
// all of them, not once per peer.
// Retaining enc is safe: the receiver allocates the frame payload (and
// thus enc.Buf) fresh per frame.
func (r *Relay) FeedFrame(flags byte, payload []byte, enc *epoch.Encoded) error {
	var err error
	if fa, ok := r.inner.(ship.FrameApplier); ok {
		err = fa.FeedFrame(flags, payload, enc)
	} else {
		err = r.inner.Feed(enc)
	}
	if err != nil {
		return err
	}
	r.forward(enc)
	return nil
}

// forward re-ships one locally-applied epoch downstream, recording (not
// propagating) a subtree-wide delivery failure.
func (r *Relay) forward(enc *epoch.Encoded) {
	if err := r.out.Send(enc); err != nil {
		r.mu.Lock()
		if r.downErr == nil {
			r.downErr = err
		}
		r.mu.Unlock()
	}
}

// Heartbeat implements ship.Applier: advance local visibility, then let
// downstream heartbeats advertise the watermark. The upstream heartbeat
// contract (stream complete through ts) carries through Fanout.Heartbeat
// unchanged.
func (r *Relay) Heartbeat(ts int64) error {
	if err := r.inner.Heartbeat(ts); err != nil {
		return err
	}
	r.out.Heartbeat(ts)
	return nil
}

// Err returns the first downstream delivery failure (all peers down),
// nil while the subtree is reachable.
func (r *Relay) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.downErr
}

// Fanout returns the downstream fan-out (stats, Close).
func (r *Relay) Fanout() *Fanout { return r.out }

// RestoreSnapshot implements ship.SnapshotApplier by delegating to the
// inner applier. Forwarding is untouched: the relay's cursor jumps to
// the snapshot's, downstream senders discover the sequence gap on the
// next forwarded epoch, and — when the relay's fan-out has a snapshot
// source — re-base their own replicas in turn.
func (r *Relay) RestoreSnapshot(cursor uint64, size int64, rd io.Reader) error {
	sa, ok := r.inner.(ship.SnapshotApplier)
	if !ok {
		return ship.ErrSnapshotUnsupported
	}
	return sa.RestoreSnapshot(cursor, size, rd)
}

// VerifyDigest implements ship.DigestApplier by delegating to the inner
// applier; a relay without a digest-aware inner accepts every digest.
func (r *Relay) VerifyDigest(seq uint64, ts int64, digest uint64) error {
	if da, ok := r.inner.(ship.DigestApplier); ok {
		return da.VerifyDigest(seq, ts, digest)
	}
	return nil
}

// SnapshotCapable reports whether the inner applier can actually
// restore a wire snapshot, so the receiver advertises CapSnapshot only
// when true (ship.SnapshotCapable).
func (r *Relay) SnapshotCapable() bool {
	_, ok := r.inner.(ship.SnapshotApplier)
	return ok
}
