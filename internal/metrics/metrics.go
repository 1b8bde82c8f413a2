// Package metrics provides the measurement primitives of the evaluation:
// visibility-delay recorders, replay throughput, and the dispatch/replay/
// commit time breakdown of Table II.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// DelayRecorder accumulates visibility-delay samples. Safe for concurrent
// use by many query goroutines.
type DelayRecorder struct {
	mu    sync.Mutex
	count int64
	sum   float64 // microseconds
}

// Record adds one sample.
func (r *DelayRecorder) Record(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	r.mu.Lock()
	r.count++
	r.sum += us
	r.mu.Unlock()
}

// Count returns the number of samples recorded.
func (r *DelayRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.count)
}

// Mean returns the mean delay in microseconds (0 when empty).
func (r *DelayRecorder) Mean() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return 0
	}
	return r.sum / float64(r.count)
}

// Breakdown accumulates the per-phase time shares of Table II. The three
// phases are accounted in nanoseconds of work (summed across goroutines for
// the parallel replay phase, matching the paper's CPU-time breakdown).
type Breakdown struct {
	DispatchNS atomic.Int64
	ReplayNS   atomic.Int64
	CommitNS   atomic.Int64
}

// AddDispatch, AddReplay and AddCommit add elapsed work time to a phase.
func (b *Breakdown) AddDispatch(d time.Duration) { b.DispatchNS.Add(int64(d)) }

// AddReplay adds elapsed work time to the replay phase.
func (b *Breakdown) AddReplay(d time.Duration) { b.ReplayNS.Add(int64(d)) }

// AddCommit adds elapsed work time to the commit phase.
func (b *Breakdown) AddCommit(d time.Duration) { b.CommitNS.Add(int64(d)) }

// Shares returns the dispatch/replay/commit fractions, summing to 1 when
// any time has been recorded.
func (b *Breakdown) Shares() (dispatch, replay, commit float64) {
	d := float64(b.DispatchNS.Load())
	r := float64(b.ReplayNS.Load())
	c := float64(b.CommitNS.Load())
	tot := d + r + c
	if tot == 0 {
		return 0, 0, 0
	}
	return d / tot, r / tot, c / tot
}

// Reset zeroes all phases.
func (b *Breakdown) Reset() {
	b.DispatchNS.Store(0)
	b.ReplayNS.Store(0)
	b.CommitNS.Store(0)
}

// Throughput describes one replay run for reporting.
type Throughput struct {
	Txns    int
	Elapsed time.Duration
}

// TxnsPerSec returns replayed transactions per second.
func (t Throughput) TxnsPerSec() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Txns) / t.Elapsed.Seconds()
}
