package baselines

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aets/internal/epoch"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// C5 reproduces the replay scheme of C5 (paper §VI-A5):
//
//   - row-based dispatch: every modification is routed to the dedicated
//     queue of its row (hashed onto workers), in transaction order, so each
//     row's versions are applied in primary order by construction with no
//     runtime ordering checks;
//   - the dispatcher must parse the *entire log data image* (full decode
//     and value copies) to learn the row key — the parsing-cost
//     asymmetry versus AETS/ATR the paper calls out;
//   - a periodic snapshot thread (default every 5 ms) advances the visible
//     snapshot to the timestamp below which all queues are fully applied.
type C5 struct {
	mt      *memtable.Memtable
	workers int
	period  time.Duration

	queues         []chan c5Item
	applied        []paddedTS // per-worker last applied commit timestamp
	backlog        []paddedCount
	lastDispatched atomic.Int64

	snapshot *tsWatch

	feed     chan *epoch.Encoded
	inflight sync.WaitGroup
	wg       sync.WaitGroup
	tickStop chan struct{}
	life     lifeState

	errMu sync.Mutex
	err   error
}

// paddedTS and paddedCount avoid false sharing between per-worker counters.
type paddedTS struct {
	v atomic.Int64
	_ [48]byte
}

type paddedCount struct {
	v atomic.Int64
	_ [48]byte
}

// c5Item is one row modification with its commit timestamp resolved.
type c5Item struct {
	entry    wal.Entry
	commitTS int64
	ep       *c5Epoch
}

// c5Epoch tracks completion of one epoch for Drain.
type c5Epoch struct {
	remaining atomic.Int64
	lastTS    int64
	release   func()
}

// NewC5 returns a C5 replayer with the given worker count and snapshot
// period (0 means the paper's 5 ms).
func NewC5(mt *memtable.Memtable, workers int, period time.Duration) *C5 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if period <= 0 {
		period = 5 * time.Millisecond
	}
	return &C5{mt: mt, workers: workers, period: period, snapshot: newTSWatch()}
}

// Name implements the Replayer interface.
func (c *C5) Name() string { return "C5" }

// Start launches the dispatcher, workers and snapshot ticker. Idempotent;
// a stopped replayer cannot be restarted.
func (c *C5) Start() {
	c.life.startOnce(func() {
		c.feed = make(chan *epoch.Encoded, 8)
		c.tickStop = make(chan struct{})
		c.queues = make([]chan c5Item, c.workers)
		c.applied = make([]paddedTS, c.workers)
		c.backlog = make([]paddedCount, c.workers)
		for i := range c.queues {
			c.queues[i] = make(chan c5Item, 4096)
			c.wg.Add(1)
			go c.worker(i)
		}
		c.wg.Add(2)
		go c.dispatcher()
		go c.ticker()
	})
}

// Feed enqueues one encoded epoch. It returns a lifecycle error before
// Start or after Stop instead of hanging on a nil or closed channel.
func (c *C5) Feed(enc *epoch.Encoded) error {
	return c.life.feed(func() {
		c.inflight.Add(1)
		c.feed <- enc
	})
}

// Drain blocks until every fed epoch is fully applied and visible.
func (c *C5) Drain() { c.inflight.Wait() }

// Stop drains and shuts down all goroutines, then releases WaitGlobal
// waiters the final snapshot does not cover. The replayer cannot be
// restarted; Feed after Stop returns an error.
func (c *C5) Stop() {
	if c.life.stopOnce(func() { close(c.feed) }) {
		c.wg.Wait()
	}
	c.snapshot.Close()
}

// Err returns the first fatal replay error.
func (c *C5) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// WaitVisible blocks until the periodic snapshot reaches qts; C5's
// visibility is global, so the table set is ignored.
func (c *C5) WaitVisible(qts int64, _ []wal.TableID) { c.snapshot.Wait(qts) }

// WaitGlobal blocks until the snapshot timestamp reaches qts (true) or
// the replayer stops short of it (false).
func (c *C5) WaitGlobal(qts int64) bool { return c.snapshot.WaitOpen(qts) }

// GlobalTS returns the current snapshot timestamp.
func (c *C5) GlobalTS() int64 { return c.snapshot.Load() }

func (c *C5) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

func (c *C5) dispatcher() {
	defer c.wg.Done()
	defer func() {
		for _, q := range c.queues {
			close(q)
		}
		close(c.tickStop)
	}()
	for enc := range c.feed {
		if err := c.dispatchEpoch(enc); err != nil {
			c.fail(err)
			c.inflight.Done()
		}
	}
}

func (c *C5) dispatchEpoch(enc *epoch.Encoded) error {
	ep := &c5Epoch{lastTS: enc.LastCommitTS, release: c.inflight.Done}
	ep.remaining.Store(1) // guard until the whole epoch is dispatched

	buf := enc.Buf
	var (
		pending []wal.Entry
		inTxn   bool
	)
	for len(buf) > 0 {
		// Row-based dispatch requires the row key, which lives in the data
		// image: C5 pays the full decode here.
		e, sz, err := wal.Decode(buf)
		if err != nil {
			return fmt.Errorf("c5: epoch %d: %w", enc.Seq, err)
		}
		buf = buf[sz:]
		switch e.Type {
		case wal.TypeBegin:
			if inTxn {
				return fmt.Errorf("c5: epoch %d: BEGIN inside an open txn", enc.Seq)
			}
			inTxn = true
			pending = pending[:0]
		case wal.TypeCommit:
			if !inTxn {
				return fmt.Errorf("c5: epoch %d: unframed COMMIT %d", enc.Seq, e.TxnID)
			}
			ep.remaining.Add(int64(len(pending)))
			for i := range pending {
				pending[i].TxnID = e.TxnID // the entries belong to this COMMIT by position
				w := int(rowHash(pending[i].Table, pending[i].RowKey) % uint64(c.workers))
				c.backlog[w].v.Add(1)
				c.queues[w] <- c5Item{entry: pending[i], commitTS: e.Timestamp, ep: ep}
			}
			c.lastDispatched.Store(e.Timestamp)
			inTxn = false
		default:
			if !inTxn {
				return fmt.Errorf("c5: epoch %d: unframed DML", enc.Seq)
			}
			pending = append(pending, e)
		}
	}
	if inTxn {
		return fmt.Errorf("c5: epoch %d ends inside an open txn", enc.Seq)
	}
	if enc.LastCommitTS > c.lastDispatched.Load() {
		c.lastDispatched.Store(enc.LastCommitTS) // heartbeats advance the frontier
	}
	c.epochDone(ep, ep.remaining.Add(-1)) // drop the dispatch guard
	return nil
}

func (c *C5) epochDone(ep *c5Epoch, remaining int64) {
	if remaining != 0 {
		return
	}
	// Only release the Drain accounting here. The snapshot must NOT be
	// advanced on epoch completion: epochs can finish applying out of order
	// across worker queues, and only the ticker's all-queue watermark knows
	// when a timestamp is safe. The up-to-one-period visibility lag this
	// leaves is exactly C5's periodic-snapshot behaviour.
	ep.release()
}

func (c *C5) worker(i int) {
	defer c.wg.Done()
	for item := range c.queues[i] {
		e := &item.entry
		rec := c.mt.Table(e.Table).GetOrCreate(e.RowKey)
		rec.Append(&memtable.Version{
			TxnID:    e.TxnID,
			CommitTS: item.commitTS,
			Deleted:  e.Type == wal.TypeDelete,
			Columns:  e.Columns,
		})
		c.applied[i].v.Store(item.commitTS)
		c.backlog[i].v.Add(-1)
		c.epochDone(item.ep, item.ep.remaining.Add(-1))
	}
}

// ticker periodically computes the watermark below which all dedicated
// queues are fully applied and publishes it as the snapshot timestamp.
func (c *C5) ticker() {
	defer c.wg.Done()
	t := time.NewTicker(c.period)
	defer t.Stop()
	for {
		select {
		case <-c.tickStop:
			// Final watermark on shutdown: the dispatcher only closes the
			// ticker after the feed drains, so one last computation
			// publishes everything already applied.
			c.snapshot.Advance(c.watermark())
			return
		case <-t.C:
			c.snapshot.Advance(c.watermark())
		}
	}
}

// watermark computes the timestamp below which all dedicated queues are
// fully applied. The dispatch frontier is read first: if a worker's backlog
// then reads zero, that worker has applied everything dispatched before the
// frontier was observed (Go atomics are sequentially consistent).
func (c *C5) watermark() int64 {
	snap := c.lastDispatched.Load()
	for i := range c.backlog {
		if c.backlog[i].v.Load() > 0 {
			if ts := c.applied[i].v.Load(); ts < snap {
				snap = ts
			}
		}
	}
	return snap
}

// rowHash mixes table and row key into a queue index (FNV-style).
func rowHash(t wal.TableID, key uint64) uint64 {
	h := uint64(1469598103934665603)
	h = (h ^ uint64(t)) * 1099511628211
	h = (h ^ key) * 1099511628211
	return h
}
