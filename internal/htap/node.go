package htap

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"aets/internal/checkpoint"
	"aets/internal/colstore"
	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/query"
	"aets/internal/wal"
)

// Node is a complete backup node: a replayer over an MVCC Memtable, a
// snapshot query executor, version-chain garbage collection, and
// checkpoint/restore — everything a replica deployment needs behind one
// handle.
type Node struct {
	mt *memtable.Memtable
	r  Replayer
	ex *query.Executor

	// cs/comp are the columnar side (Options.Columnar); nil on a plain
	// row-wise node.
	cs   *colstore.Store
	comp *colstore.Compactor

	// cutMu serializes state cuts — Checkpoint, StateDigest,
	// AntiEntropyDigest — against Feed. A cut must be atomic with
	// respect to the epoch stream: drain, read the cursor and walk the
	// memtable with no feed landing in between, or the image claims a
	// cursor whose epochs it only partially contains. A replica restored
	// from such a torn snapshot resumes past data it never got — a
	// silent, permanent gap in its version history. Feed holds it for
	// the enqueue only, so steady-state cost is one uncontended lock;
	// during a cut the producer briefly backpressures instead of
	// tearing the image.
	cutMu sync.Mutex

	mu        sync.Mutex
	lastSeq   uint64
	lastTxnID uint64
	fed       bool

	// primaryTS is the newest primary commit watermark this node has seen
	// (fed epochs and heartbeats). replay lag = primaryTS - VisibleTS.
	primaryTS atomic.Int64
}

// NewNode builds a backup node with the given replay algorithm and plan.
func NewNode(kind Kind, plan *grouping.Plan, opts Options) (*Node, error) {
	mt := memtable.New()
	return newNodeWith(mt, kind, plan, opts)
}

// RestoreNode rebuilds a node from a checkpoint stream. The returned meta
// tells the caller which epoch to resume feeding from (Meta.NextEpochSeq).
func RestoreNode(src io.Reader, kind Kind, plan *grouping.Plan, opts Options) (*Node, checkpoint.Meta, error) {
	mt, meta, err := checkpoint.Read(src)
	if err != nil {
		return nil, meta, err
	}
	n, err := newNodeWith(mt, kind, plan, opts)
	if err != nil {
		return nil, meta, err
	}
	n.lastSeq = meta.LastEpochSeq
	n.lastTxnID = meta.LastTxnID
	// Fed-ness must round-trip: a checkpoint of a never-fed node restores
	// to a node whose resume cursor is still epoch 0, not epoch 1.
	n.fed = meta.Fed
	n.advancePrimaryTS(meta.LastCommitTS)
	// Make the restored state immediately visible: everything up to the
	// checkpoint watermark is present.
	hb := epoch.Encoded{Seq: meta.LastEpochSeq, LastCommitTS: meta.LastCommitTS}
	if err := n.r.Feed(&hb); err != nil {
		return nil, meta, err
	}
	n.r.Drain()
	return n, meta, nil
}

func newNodeWith(mt *memtable.Memtable, kind Kind, plan *grouping.Plan, opts Options) (*Node, error) {
	r, err := NewReplayer(kind, mt, plan, opts)
	if err != nil {
		return nil, err
	}
	n := &Node{mt: mt, r: r}
	if opts.Columnar {
		n.cs = colstore.NewStore()
		n.comp = colstore.NewCompactor(mt, n.cs)
	}
	n.ex = query.NewExecutor(mt, r, n.cs)
	n.r.Start()
	return n, nil
}

// Feed enqueues one encoded epoch for replay. It fails only if the node
// was already closed. The node keeps enc.Buf: see epoch.Encoded for the
// ownership contract.
func (n *Node) Feed(enc *epoch.Encoded) error {
	n.cutMu.Lock()
	defer n.cutMu.Unlock()
	n.mu.Lock()
	n.lastSeq = enc.Seq
	n.fed = true
	if enc.TxnCount > 0 {
		n.lastTxnID = enc.LastTxnID
	}
	n.mu.Unlock()
	n.advancePrimaryTS(enc.LastCommitTS)
	return n.r.Feed(enc)
}

// Heartbeat feeds a dummy epoch carrying only the primary's current
// commit timestamp, advancing visibility on an idle stream (paper
// §V-B) without consuming an epoch sequence number — the replication
// resume cursor is untouched.
func (n *Node) Heartbeat(ts int64) error {
	n.mu.Lock()
	seq := n.lastSeq
	n.mu.Unlock()
	n.advancePrimaryTS(ts)
	return n.r.Feed(&epoch.Encoded{Seq: seq, LastCommitTS: ts})
}

func (n *Node) advancePrimaryTS(ts int64) {
	for {
		cur := n.primaryTS.Load()
		if cur >= ts || n.primaryTS.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// PrimaryTS returns the newest primary commit watermark the node has seen
// through fed epochs and heartbeats — the "how fresh could I be" clock.
func (n *Node) PrimaryTS() int64 { return n.primaryTS.Load() }

// ReplayLag returns how far replay visibility trails the primary's
// watermark, in commit-timestamp units (0 when fully caught up).
func (n *Node) ReplayLag() int64 {
	lag := n.PrimaryTS() - n.VisibleTS()
	if lag < 0 {
		return 0
	}
	return lag
}

// NextSeq returns the next epoch sequence number the node expects: 0 on
// a fresh node, last fed seq + 1 otherwise. This is the replication
// resume cursor a reconnecting primary is told in the handshake.
func (n *Node) NextSeq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.fed {
		return 0
	}
	return n.lastSeq + 1
}

// Drain blocks until all fed epochs are replayed.
func (n *Node) Drain() { n.r.Drain() }

// Close drains and stops the node.
func (n *Node) Close() error {
	n.r.Stop()
	return n.r.Err()
}

// Err returns the first fatal replay error.
func (n *Node) Err() error { return n.r.Err() }

// VisibleTS returns the node's global visible timestamp.
func (n *Node) VisibleTS() int64 { return n.r.GlobalTS() }

// WaitVisibleTS blocks until VisibleTS reaches qts, returning true, or
// until the node is closed short of it, returning false.
func (n *Node) WaitVisibleTS(qts int64) bool { return n.r.WaitGlobal(qts) }

// Query begins a snapshot read at qts over the given tables, blocking per
// Algorithm 3 until the snapshot is visible. qts ≤ 0 reads the freshest
// currently visible state without blocking.
func (n *Node) Query(qts int64, tables ...wal.TableID) *query.Snapshot {
	return n.ex.Begin(qts, tables...)
}

// Vacuum prunes record versions older than the given watermark and returns
// the number removed. Callers must not run queries at snapshots below the
// watermark afterwards; the node's visible timestamp is always a safe
// choice for "retain only what future queries can request".
func (n *Node) Vacuum(watermark int64) int {
	return n.mt.Vacuum(watermark)
}

// Colstore returns the node's columnar store, or nil on a row-wise node.
func (n *Node) Colstore() *colstore.Store { return n.cs }

// Compact runs one columnar compaction pass at the given watermark and
// returns the number of rows frozen. Same safety contract as Vacuum: no
// active or future query may read below the watermark. No-op (returns 0)
// on a row-wise node.
func (n *Node) Compact(watermark int64) int {
	if n.comp == nil {
		return 0
	}
	return n.comp.RunOnce(watermark)
}

// StartCompactLoop freezes chains older than `retention` behind the
// visible timestamp every `every` — the columnar mirror of
// StartVacuumLoop, sharing its watermark contract and timestamp domain.
// It returns a stop function; on a row-wise node the loop is a no-op.
func (n *Node) StartCompactLoop(every time.Duration, retention int64) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		if n.comp == nil {
			return
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if ts := n.r.GlobalTS() - retention; ts > 0 {
					n.comp.RunOnce(ts)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Checkpoint quiesces replay (Drain) and writes the node's state to w. The
// recorded meta points at the last fed epoch, so a restore can resume the
// stream at LastEpochSeq+1. The cut excludes concurrent Feeds (cutMu):
// cursor and image always agree, even when the node is a live fan-out
// mirror being fed while a peer's sender cuts a catch-up snapshot.
func (n *Node) Checkpoint(w io.Writer) (checkpoint.Meta, error) {
	n.cutMu.Lock()
	defer n.cutMu.Unlock()
	n.r.Drain()
	if err := n.r.Err(); err != nil {
		return checkpoint.Meta{}, fmt.Errorf("htap: cannot checkpoint a failed node: %w", err)
	}
	n.mu.Lock()
	meta := checkpoint.Meta{
		LastEpochSeq: n.lastSeq,
		LastTxnID:    n.lastTxnID,
		LastCommitTS: n.r.GlobalTS(),
		Fed:          n.fed,
	}
	n.mu.Unlock()
	// On a columnar node the base segments hold history the compactor
	// moved out of the record chains; the checkpoint must cover it or a
	// restore silently loses frozen columns.
	var frozen checkpoint.FrozenFunc
	if n.cs != nil {
		frozen = n.cs.Lookup
	}
	return meta, checkpoint.WriteWith(w, n.mt, meta, frozen)
}

// Memtable exposes the underlying storage (read-mostly helpers, tests).
func (n *Node) Memtable() *memtable.Memtable { return n.mt }

// StartVacuumLoop prunes versions older than `retention` behind the
// visible timestamp every `every`. It returns a stop function. Timestamps
// are in the log's commit-timestamp domain, so retention is expressed
// there too (with the default primary clock, 1 unit = 1 ns of virtual
// time, 1000 units per transaction).
func (n *Node) StartVacuumLoop(every time.Duration, retention int64) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if ts := n.r.GlobalTS() - retention; ts > 0 {
					n.mt.Vacuum(ts)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
