package replay

import (
	"sync/atomic"
	"time"

	"aets/internal/wal"
)

// visibility.go implements Algorithm 3 (paper §V-B): a query arriving with
// snapshot timestamp qts over a set of tables blocks until either the
// minimum tg_cmt_ts of the groups it touches, or the global commit
// timestamp, reaches qts. Writers publish progress through atomic
// timestamps and wake waiters via a condition variable; the broadcast is
// skipped entirely when no query is waiting.

// publishGroup advances a group's tg_cmt_ts to at least ts and wakes
// waiters. Concurrent publishers (the group committer and heartbeats) are
// reconciled with a CAS max-loop so the timestamp is monotone.
func (e *Engine) publishGroup(vs *visState, gi int, ts int64) {
	advanceMax(&vs.tg[gi], ts)
	e.wake()
}

// publishAll advances every group and the global commit timestamp to ts.
// Called at epoch completion and on heartbeat epochs.
func (e *Engine) publishAll(vs *visState, ts int64) {
	for i := range vs.tg {
		advanceMax(&vs.tg[i], ts)
	}
	advanced := advanceMax(&e.global, ts)
	e.wake()
	if advanced {
		e.wakeGlobal()
	}
	e.gRecycled.Set(float64(e.mt.Arenas().Recycled()))
}

func (e *Engine) wake() {
	if e.waiters.Load() == 0 {
		return
	}
	// Lock/broadcast pairing guarantees a waiter that failed its check is
	// either already parked in Wait (and gets this broadcast) or will
	// re-check after acquiring the lock and observe the new timestamps.
	e.visMu.Lock()
	e.visCond.Broadcast()
	e.visMu.Unlock()
}

// wakeGlobal releases every WaitGlobal waiter parked on the current
// channel and installs a fresh one. Waiters register (gWaiters) before
// they load the channel and re-check the watermark after, so a waiter
// this call skips, or whose channel it already replaced, sees the new
// global timestamp on that re-check.
func (e *Engine) wakeGlobal() {
	if e.gWaiters.Load() == 0 {
		return
	}
	e.gMu.Lock()
	close(e.gCh)
	e.gCh = make(chan struct{})
	e.gMu.Unlock()
}

// WaitGlobal blocks until the global commit timestamp reaches qts,
// returning true, or until the engine stops short of it (Stop, or a
// Stop before Start), returning false. Only epoch publishes and
// heartbeats wake it, not per-group commits: it is the admission wait
// of a router, which pins its reads to the global watermark.
func (e *Engine) WaitGlobal(qts int64) bool {
	if e.global.Load() >= qts {
		return true
	}
	e.gWaiters.Add(1)
	defer e.gWaiters.Add(-1)
	for {
		e.gMu.Lock()
		ch := e.gCh
		e.gMu.Unlock()
		if e.global.Load() >= qts {
			return true
		}
		select {
		case <-ch:
		case <-e.stopped:
			return e.global.Load() >= qts
		}
	}
}

// GlobalTS returns the global commit timestamp: the maximum commit
// timestamp of fully replayed epochs (and heartbeats).
func (e *Engine) GlobalTS() int64 { return e.global.Load() }

// visibleAt reports whether a query at qts over tables can proceed.
func (e *Engine) visibleAt(qts int64, tables []wal.TableID) bool {
	if e.global.Load() >= qts {
		return true
	}
	vs := e.vis.Load()
	for _, t := range tables {
		gi, ok := vs.plan.GroupOf(t)
		if !ok {
			return false // unknown table: only the global timestamp admits it
		}
		if vs.tg[gi].Load() < qts {
			return false
		}
	}
	return true
}

// WaitVisible blocks until every record version with commit timestamp ≤ qts
// in the given tables is visible (Algorithm 3, lines 4-10). After it
// returns, reads at qts on those tables satisfy the primary's commit order.
// Blocked waits are recorded in the replay_wait_visible_seconds histogram;
// the already-visible fast path records nothing and stays free.
func (e *Engine) WaitVisible(qts int64, tables []wal.TableID) {
	if e.visibleAt(qts, tables) {
		return
	}
	t0 := time.Now()
	e.waiters.Add(1)
	defer e.waiters.Add(-1)
	e.visMu.Lock()
	for !e.visibleAt(qts, tables) {
		e.visCond.Wait()
	}
	e.visMu.Unlock()
	e.hWait.Observe(time.Since(t0))
}

// advanceMax atomically raises a to at least v and reports whether it
// moved.
func advanceMax(a *atomic.Int64, v int64) bool {
	for {
		cur := a.Load()
		if cur >= v {
			return false
		}
		if a.CompareAndSwap(cur, v) {
			return true
		}
	}
}
