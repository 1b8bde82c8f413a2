package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: powers of two in nanoseconds, from 2^histMinPow
// (≈1 µs) to 2^histMaxPow (≈69 s). Latencies below the first bound land in
// the first bucket; latencies above the last bound count only toward the
// +Inf bucket (Count). The geometric spacing gives ~2× resolution across
// six decades with a fixed 27-slot array, so recording is a single atomic
// add with no allocation — safe on the replay hot path.
const (
	histMinPow  = 10 // 2^10 ns = 1.024 µs
	histMaxPow  = 36 // 2^36 ns ≈ 68.7 s
	histNumBkts = histMaxPow - histMinPow + 1
)

// Histogram is a fixed-bucket latency histogram (exponential, base 2).
// Safe for concurrent use; the zero value is ready. Observe is
// allocation-free and wait-free, which is what lets the replay engine
// record dispatch/commit/wait latencies inside its pinned-allocation hot
// paths.
type Histogram struct {
	buckets [histNumBkts]atomic.Int64 // per-bucket (non-cumulative) counts
	count   atomic.Int64
	sumNS   atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	// bits.Len64(ns) is the smallest p with ns < 2^p, so the sample belongs
	// to the bucket with upper bound 2^p.
	p := bits.Len64(uint64(ns))
	switch {
	case p <= histMinPow:
		h.buckets[0].Add(1)
	case p <= histMaxPow:
		h.buckets[p-histMinPow].Add(1)
		// else: beyond the last bound — counted in Count (+Inf) only.
	}
}

// HistogramBucket is one cumulative bucket of a snapshot: the number of
// observations at or below UpperSeconds.
type HistogramBucket struct {
	UpperSeconds float64 `json:"le"`
	Count        int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a Histogram, in the
// cumulative form Prometheus exposition wants. Buckets are ascending;
// observations above the last bound appear only in Count (the +Inf
// bucket).
type HistogramSnapshot struct {
	Count      int64             `json:"count"`
	SumSeconds float64           `json:"sum_seconds"`
	Buckets    []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Concurrent Observes may
// land between bucket reads; the snapshot is still internally monotone
// because buckets are accumulated in one pass and Count is read last.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]HistogramBucket, histNumBkts)}
	var cum int64
	for i := 0; i < histNumBkts; i++ {
		cum += h.buckets[i].Load()
		s.Buckets[i] = HistogramBucket{
			UpperSeconds: bucketUpperSeconds(i),
			Count:        cum,
		}
	}
	s.SumSeconds = float64(h.sumNS.Load()) / float64(time.Second)
	c := h.count.Load()
	if c < cum {
		c = cum // Count read raced behind the bucket adds
	}
	s.Count = c
	return s
}

func bucketUpperSeconds(i int) float64 {
	return float64(int64(1)<<uint(histMinPow+i)) / float64(time.Second)
}
