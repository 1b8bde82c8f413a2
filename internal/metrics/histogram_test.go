package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndCount(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // below first bound → first bucket
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Millisecond)
	h.Observe(10 * time.Minute) // beyond last bound → +Inf only
	h.Observe(-time.Second)     // clamped to 0

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count %d, want 5", s.Count)
	}
	if got := s.Buckets[len(s.Buckets)-1].Count; got != 4 {
		t.Fatalf("last finite bucket cumulative %d, want 4 (one sample is +Inf-only)", got)
	}
	if s.Buckets[0].Count != 2 { // 500ns and -1s→0 both land in the first bucket
		t.Fatalf("first bucket %d, want 2", s.Buckets[0].Count)
	}
	// Cumulative counts must be monotone and bounds ascending.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Count < s.Buckets[i-1].Count {
			t.Fatalf("bucket %d cumulative count decreased", i)
		}
		if s.Buckets[i].UpperSeconds <= s.Buckets[i-1].UpperSeconds {
			t.Fatalf("bucket %d bound not ascending", i)
		}
	}
	wantSum := (500*time.Nanosecond + 3*time.Microsecond + 100*time.Millisecond + 10*time.Minute).Seconds()
	if math.Abs(s.SumSeconds-wantSum) > 1e-9 {
		t.Fatalf("sum %v, want %v", s.SumSeconds, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c := h.Snapshot().Count; c != 8000 {
		t.Fatalf("count %d", c)
	}
}

// TestHistogramObserveAllocs pins the hot-path claim: recording a sample
// allocates nothing, so histograms can sit on the TPLR hand-off path
// without breaking its zero-allocation guarantee.
func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	n := testing.AllocsPerRun(1000, func() {
		h.Observe(3 * time.Millisecond)
	})
	if n != 0 {
		t.Fatalf("Observe allocates %.1f objects/op, want 0", n)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("replay_test_seconds")
	if h != r.Histogram("replay_test_seconds") {
		t.Fatal("get-or-create must return the same instance")
	}
	h.Observe(time.Millisecond)
	snap := r.SnapshotAll()
	hs, ok := snap.Histograms["replay_test_seconds"]
	if !ok || hs.Count != 1 {
		t.Fatalf("snapshot %+v", snap.Histograms)
	}
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1.5)
	snap = r.SnapshotAll()
	if snap.Counters["c"] != 3 || snap.Gauges["g"] != 1.5 {
		t.Fatalf("typed snapshot %+v", snap)
	}
}
