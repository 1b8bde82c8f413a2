package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestDelayRecorderStats(t *testing.T) {
	var r DelayRecorder
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	if r.Count() != 100 {
		t.Fatalf("count %d", r.Count())
	}
	if m := r.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean %v, want 50.5", m)
	}
}

func TestDelayRecorderConcurrent(t *testing.T) {
	var r DelayRecorder
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Fatalf("count %d", r.Count())
	}
}

func TestBreakdownShares(t *testing.T) {
	var b Breakdown
	d0, r0, c0 := b.Shares()
	if d0 != 0 || r0 != 0 || c0 != 0 {
		t.Fatal("empty breakdown must be all zero")
	}
	b.AddDispatch(1 * time.Millisecond)
	b.AddReplay(98 * time.Millisecond)
	b.AddCommit(1 * time.Millisecond)
	d, r, c := b.Shares()
	if math.Abs(d-0.01) > 1e-9 || math.Abs(r-0.98) > 1e-9 || math.Abs(c-0.01) > 1e-9 {
		t.Fatalf("shares %v %v %v", d, r, c)
	}
	b.Reset()
	if d, r, c := b.Shares(); d+r+c != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Txns: 100, Elapsed: time.Second}
	if tp.TxnsPerSec() != 100 {
		t.Fatalf("%v", tp.TxnsPerSec())
	}
	zero := Throughput{}
	if zero.TxnsPerSec() != 0 {
		t.Fatal("zero elapsed must give zero rates")
	}
}
