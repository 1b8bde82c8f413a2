// Package baselines implements the two state-of-the-art parallel log replay
// competitors the paper evaluates against: ATR (SAP HANA's parallel
// replication replay, Lee et al., VLDB'17) and C5 (Helt et al., VLDB'22).
// Both consume the same encoded epoch stream as AETS and maintain the same
// MVCC Memtable, differing only in dispatch granularity, ordering checks
// and visibility advancement — the axes the paper compares.
package baselines

import (
	"sync"
	"sync/atomic"
)

// tsWatch is a monotone timestamp with blocking waiters: the snapshot
// timestamp of a baseline replayer. Readers wait until the timestamp
// reaches their query snapshot.
type tsWatch struct {
	ts      atomic.Int64
	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int64
	closed  bool // guarded by mu: the replayer stopped, ts is final
}

func newTSWatch() *tsWatch {
	w := &tsWatch{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Load returns the current timestamp.
func (w *tsWatch) Load() int64 { return w.ts.Load() }

// Advance raises the timestamp to at least v and wakes waiters.
func (w *tsWatch) Advance(v int64) {
	for {
		cur := w.ts.Load()
		if cur >= v {
			return
		}
		if w.ts.CompareAndSwap(cur, v) {
			break
		}
	}
	if w.waiters.Load() == 0 {
		return
	}
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Wait blocks until the timestamp is ≥ qts.
func (w *tsWatch) Wait(qts int64) { w.wait(qts, false) }

// WaitOpen blocks until the timestamp is ≥ qts, returning true, or until
// the watch is closed short of it, returning false.
func (w *tsWatch) WaitOpen(qts int64) bool { return w.wait(qts, true) }

func (w *tsWatch) wait(qts int64, untilClosed bool) bool {
	if w.ts.Load() >= qts {
		return true
	}
	w.waiters.Add(1)
	defer w.waiters.Add(-1)
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.ts.Load() < qts {
		if untilClosed && w.closed {
			return false
		}
		w.cond.Wait()
	}
	return true
}

// Close marks the timestamp final and releases WaitOpen waiters it does
// not cover. Idempotent.
func (w *tsWatch) Close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}
