package ship

import "aets/internal/metrics"

// Metrics holds the shipping gauges and counters. Both ends of a link
// can share one instance (single-process demos) or keep their own.
type Metrics struct {
	// EpochsSent counts epoch frames written by the sender, including
	// retransmissions after a reconnect.
	EpochsSent *metrics.Counter
	// EpochsAcked counts epochs the sender has retired: cumulatively
	// acknowledged by the backup, or trimmed by a resume handshake.
	EpochsAcked *metrics.Counter
	// Inflight is the sender's current sent-but-unacked window occupancy.
	Inflight *metrics.Gauge
	// Reconnects counts re-established connections (the first connect is
	// not a reconnect).
	Reconnects *metrics.Counter
	// LagSeconds is the age of the oldest unacknowledged epoch (0 when
	// the window is empty): how far the backup's replay trails the
	// primary's send point.
	LagSeconds *metrics.Gauge
	// Duplicates counts epochs the receiver dropped as already applied
	// (redelivered after a mid-window reconnect).
	Duplicates *metrics.Counter
	// Connected is the link state: 1 while a connection is established
	// (sender side) or a stream is being served (receiver side), else 0.
	Connected *metrics.Gauge
	// BytesRaw counts the bytes epoch frames would have occupied
	// uncompressed (header + payload + CRC), and BytesWire the bytes
	// actually written; their quotient is the link's achieved
	// compression ratio. Equal when compression is off or unnegotiated.
	BytesRaw  *metrics.Counter
	BytesWire *metrics.Counter
	// CompressionRatio is the cumulative wire/raw byte ratio for epoch
	// frames (1.0 = uncompressed, lower is better).
	CompressionRatio *metrics.Gauge
	// FramesBuilt counts the epoch frame forms (flate or raw) this
	// sender built. Senders sharing a Frame build each form at most once
	// between them, so summed over a fan-out's peers it grows per epoch
	// and form used, not per peer; retransmissions never add to it.
	FramesBuilt *metrics.Counter
	// SnapshotsSent counts catch-up snapshots the sender streamed to a
	// receiver whose cursor it could not serve; SnapshotsRestored counts
	// snapshots the receiver validated and installed. Named cluster_*
	// for the fleet dashboards that consume them — a snapshot is always
	// a cluster-level catch-up event even on a single link.
	SnapshotsSent     *metrics.Counter
	SnapshotsRestored *metrics.Counter
	// DigestsSent and DigestsVerified count anti-entropy digest frames
	// shipped and compared; DigestMismatches counts comparisons where
	// the receiver's committed state diverged from the sender's —
	// silent corruption the snapshot path then repairs.
	DigestsSent      *metrics.Counter
	DigestsVerified  *metrics.Counter
	DigestMismatches *metrics.Counter
}

// NewMetrics registers the shipping metrics in r (metrics.Default when
// nil) under their canonical names and returns the handle.
func NewMetrics(r *metrics.Registry) *Metrics {
	return NewPeerMetrics(r, "")
}

// NewPeerMetrics registers the shipping metrics with a `peer` label, so a
// process driving several replication links (cluster fan-out: one sender
// per replica) exposes each link's connection state, acks and resumes as
// its own series instead of one aggregate. An empty peer keeps the
// unlabelled canonical names — single-link deployments are unchanged.
func NewPeerMetrics(r *metrics.Registry, peer string) *Metrics {
	if r == nil {
		r = metrics.Default
	}
	name := func(base string) string { return metrics.WithLabel(base, "peer", peer) }
	return &Metrics{
		EpochsSent:  r.Counter(name("ship_epochs_sent")),
		EpochsAcked: r.Counter(name("ship_epochs_acked")),
		Inflight:    r.Gauge(name("ship_inflight")),
		Reconnects:  r.Counter(name("ship_reconnects_total")),
		LagSeconds:  r.Gauge(name("ship_lag_seconds")),
		Duplicates:  r.Counter(name("ship_duplicates_total")),
		Connected:   r.Gauge(name("ship_connected")),

		BytesRaw:         r.Counter(name("ship_bytes_raw_total")),
		BytesWire:        r.Counter(name("ship_bytes_wire_total")),
		CompressionRatio: r.Gauge(name("ship_compression_ratio")),
		FramesBuilt:      r.Counter(name("ship_frames_built_total")),

		SnapshotsSent:     r.Counter(name("cluster_snapshot_sent_total")),
		SnapshotsRestored: r.Counter(name("cluster_snapshot_restored_total")),
		DigestsSent:       r.Counter(name("ship_digests_sent_total")),
		DigestsVerified:   r.Counter(name("ship_digests_verified_total")),
		DigestMismatches:  r.Counter(name("cluster_digest_mismatch_total")),
	}
}
