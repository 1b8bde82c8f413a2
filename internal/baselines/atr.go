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

// ATR reproduces the parallel log replay of SAP HANA's ATR (paper §VI-A5):
//
//   - transactionID-based dispatch: each committed transaction is routed
//     whole to one of the worker queues by TxnID;
//   - workers install versions into the Memtable eagerly, guarding
//     per-record modification order with the *operation sequence check* —
//     before installing, the worker compares the record's applied-write
//     count against the entry's before-image witness (WriteSeq) and
//     synchronises (spins/yields) until every predecessor write has been
//     applied;
//   - a single visibility thread makes transactions visible strictly in
//     primary commit order by advancing the snapshot timestamp.
//
// Like AETS, dispatch parses only entry headers; the full data image is
// decoded by the worker that replays the transaction.
type ATR struct {
	mt      *memtable.Memtable
	workers int

	queues   []chan *atrTxn
	visQ     chan *atrTxn
	snapshot *tsWatch

	feed     chan *epoch.Encoded
	inflight sync.WaitGroup
	wg       sync.WaitGroup
	life     lifeState

	errMu  sync.Mutex
	err    error
	failed atomic.Bool // err is set: a sequence check may wait on writes that never come
}

// atrTxn is one dispatched transaction. done is closed by the worker after
// all its entries are installed; the visibility thread waits on it.
type atrTxn struct {
	id       uint64
	commitTS int64
	frames   [][]byte
	done     chan struct{}

	// epochEnd marks a sentinel carrying only a timestamp (heartbeats and
	// epoch boundaries) that the visibility thread uses for bookkeeping.
	epochEnd bool
	release  func()
}

// NewATR returns an ATR replayer with the given worker count over mt.
func NewATR(mt *memtable.Memtable, workers int) *ATR {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ATR{mt: mt, workers: workers, snapshot: newTSWatch()}
}

// Name implements the Replayer interface.
func (a *ATR) Name() string { return "ATR" }

// Start launches the dispatcher, worker and visibility goroutines.
// Idempotent; a stopped replayer cannot be restarted.
func (a *ATR) Start() {
	a.life.startOnce(func() {
		a.feed = make(chan *epoch.Encoded, 8)
		a.visQ = make(chan *atrTxn, 4096)
		a.queues = make([]chan *atrTxn, a.workers)
		for i := range a.queues {
			a.queues[i] = make(chan *atrTxn, 1024)
			a.wg.Add(1)
			go a.worker(a.queues[i])
		}
		a.wg.Add(2)
		go a.dispatcher()
		go a.visibility()
	})
}

// Feed enqueues one encoded epoch. It returns a lifecycle error before
// Start or after Stop instead of hanging on a nil or closed channel.
func (a *ATR) Feed(enc *epoch.Encoded) error {
	return a.life.feed(func() {
		a.inflight.Add(1)
		a.feed <- enc
	})
}

// Drain blocks until every fed epoch is fully visible.
func (a *ATR) Drain() { a.inflight.Wait() }

// Stop drains and shuts down all goroutines, then releases WaitGlobal
// waiters the final snapshot does not cover. The replayer cannot be
// restarted; Feed after Stop returns an error.
func (a *ATR) Stop() {
	if a.life.stopOnce(func() { close(a.feed) }) {
		a.wg.Wait()
	}
	a.snapshot.Close()
}

// Err returns the first fatal replay error.
func (a *ATR) Err() error {
	a.errMu.Lock()
	defer a.errMu.Unlock()
	return a.err
}

// WaitVisible blocks until the snapshot timestamp reaches qts. ATR has no
// table groups, so the table set is ignored: everything becomes visible in
// one global order.
func (a *ATR) WaitVisible(qts int64, _ []wal.TableID) { a.snapshot.Wait(qts) }

// WaitGlobal blocks until the snapshot timestamp reaches qts (true) or
// the replayer stops short of it (false).
func (a *ATR) WaitGlobal(qts int64) bool { return a.snapshot.WaitOpen(qts) }

// GlobalTS returns the current snapshot timestamp.
func (a *ATR) GlobalTS() int64 { return a.snapshot.Load() }

func (a *ATR) fail(err error) {
	a.errMu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.errMu.Unlock()
	a.failed.Store(true)
}

// dispatcher performs the header-only parse, cuts transactions on framing
// boundaries and routes each whole transaction to queue[TxnID % workers].
func (a *ATR) dispatcher() {
	defer a.wg.Done()
	defer func() {
		for _, q := range a.queues {
			close(q)
		}
		close(a.visQ)
	}()
	for enc := range a.feed {
		if err := a.dispatchEpoch(enc); err != nil {
			a.fail(err)
			a.inflight.Done()
		}
	}
}

func (a *ATR) dispatchEpoch(enc *epoch.Encoded) error {
	buf := enc.Buf
	var cur *atrTxn
	for len(buf) > 0 {
		h, sz, err := wal.DecodeHeader(buf)
		if err != nil {
			return fmt.Errorf("atr: epoch %d: %w", enc.Seq, err)
		}
		frame := buf[:sz]
		buf = buf[sz:]
		switch h.Type {
		case wal.TypeBegin:
			if cur != nil {
				return fmt.Errorf("atr: epoch %d: BEGIN inside an open txn", enc.Seq)
			}
			cur = &atrTxn{done: make(chan struct{})}
		case wal.TypeCommit:
			if cur == nil {
				return fmt.Errorf("atr: epoch %d: unframed COMMIT %d", enc.Seq, h.TxnID)
			}
			cur.id, cur.commitTS = h.TxnID, h.Timestamp
			a.queues[cur.id%uint64(a.workers)] <- cur
			a.visQ <- cur
			cur = nil
		default:
			if cur == nil {
				return fmt.Errorf("atr: epoch %d: unframed DML", enc.Seq)
			}
			cur.frames = append(cur.frames, frame)
		}
	}
	if cur != nil {
		return fmt.Errorf("atr: epoch %d ends inside an open txn", enc.Seq)
	}
	// Epoch sentinel: even empty (heartbeat) epochs advance visibility and
	// release the Drain waiter once everything before them is visible.
	a.visQ <- &atrTxn{
		epochEnd: true,
		commitTS: enc.LastCommitTS,
		release:  a.inflight.Done,
	}
	return nil
}

// worker replays whole transactions, enforcing per-record order with the
// operation sequence check.
func (a *ATR) worker(q chan *atrTxn) {
	defer a.wg.Done()
	for t := range q {
		for _, frame := range t.frames {
			e, _, err := wal.Decode(frame)
			if err != nil {
				a.fail(fmt.Errorf("atr: txn %d: %w", t.id, err))
				break
			}
			rec := a.mt.Table(e.Table).GetOrCreate(e.RowKey)
			if !a.sequenceCheck(rec, e.WriteSeq) {
				break
			}
			rec.Append(&memtable.Version{
				TxnID:    t.id,
				CommitTS: t.commitTS,
				Deleted:  e.Type == wal.TypeDelete,
				Columns:  e.Columns,
			})
		}
		close(t.done)
	}
}

// sequenceCheck blocks until the record has exactly `seq` installed
// versions — the before-image comparison of ATR's value log, which admits
// a write only when every earlier write to the row (by any transaction,
// including an earlier write of the same transaction) has been applied.
// This is the thread synchronisation the paper charges ATR for: under
// contention workers spin, then yield, then sleep. Once the replayer has
// failed it gives up and reports false: a predecessor in a corrupt epoch
// was never dispatched, so its write will never come.
func (a *ATR) sequenceCheck(rec *memtable.Record, seq uint64) bool {
	for spins := 0; ; spins++ {
		if rec.Writes() == seq {
			return true
		}
		switch {
		case spins < 64:
			// busy spin
		case spins < 256:
			runtime.Gosched()
		case a.failed.Load():
			return false
		default:
			time.Sleep(time.Microsecond)
		}
	}
}

// visibility is ATR's single commit-order thread: transactions become
// visible strictly in TxnID order once fully installed.
func (a *ATR) visibility() {
	defer a.wg.Done()
	for t := range a.visQ {
		if t.epochEnd {
			a.snapshot.Advance(t.commitTS)
			if t.release != nil {
				t.release()
			}
			continue
		}
		<-t.done
		a.snapshot.Advance(t.commitTS)
	}
}
