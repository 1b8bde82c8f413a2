package memtable

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aets/internal/wal"
)

func BenchmarkGetOrCreate(b *testing.B) {
	mt := New()
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64() % (1 << 18)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		mt.Table(1).GetOrCreate(keys[i%len(keys)])
	}
}

// BenchmarkGetOrCreateParallel measures translate-phase index scaling: g
// goroutines hammer GetOrCreate on one 8-shard table, each with its own
// random key stream. On a multi-core host the sharded index should scale
// near-linearly where the old table-wide lock serialised; on a single
// hardware thread (GOMAXPROCS=1) the goroutines time-slice one core and
// the ratio stays ≈1 — the interesting number there is that adding
// goroutines does not *cost* anything.
func BenchmarkGetOrCreateParallel(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			tab := NewWithShards(8).Table(1)
			streams := make([][]uint64, g)
			for w := range streams {
				rng := rand.New(rand.NewSource(int64(w + 1)))
				streams[w] = make([]uint64, 1<<15)
				for i := range streams[w] {
					streams[w][i] = rng.Uint64() % (1 << 18)
				}
			}
			// Pre-warm every stream key so the timed loop measures the
			// steady-state hit path. Without this, the table is built
			// during timing and the tree's splits and record slabs show
			// up as a per-op allocation cost that depends on b.N — the
			// higher-goroutine runs reported nonzero B/op purely because
			// their shorter per-goroutine loops amortised the build worse.
			for _, keys := range streams {
				for _, k := range keys {
					tab.GetOrCreate(k)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/g + 1
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					keys := streams[w]
					for i := 0; i < per; i++ {
						tab.GetOrCreate(keys[i%len(keys)])
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// benchTable builds the shared scan-benchmark fixture: 1<<16 records with
// random keys below 1<<20 through the given shard count.
func benchTable(shards int) *Table {
	tab := NewWithShards(shards).Table(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<16; i++ {
		tab.GetOrCreate(rng.Uint64() % (1 << 20))
	}
	return tab
}

// scanBenchShards is the shard axis of the scan benchmarks: the full
// scaling curve from the single-tree fast path to 16 shards.
var scanBenchShards = []int{1, 2, 4, 8, 16}

// BenchmarkScanMerged prices ordered scans across the shard scaling
// curve: full-range scans and narrow ~1/64th-range scans, each gathering
// every shard's range and sorting it (one shard walks its tree directly).
func BenchmarkScanMerged(b *testing.B) {
	for _, shards := range scanBenchShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tab := benchTable(shards)
			n := tab.Len()
			b.ReportAllocs()
			for b.Loop() {
				seen := 0
				tab.Scan(0, ^uint64(0), func(uint64, *Record) bool {
					seen++
					return true
				})
				if seen != n {
					b.Fatalf("scan saw %d of %d records", seen, n)
				}
			}
		})
		b.Run(fmt.Sprintf("shards=%d/narrow", shards), func(b *testing.B) {
			tab := benchTable(shards)
			const lo, hi = uint64(1) << 19, uint64(1)<<19 + uint64(1)<<14
			b.ReportAllocs()
			for b.Loop() {
				tab.Scan(lo, hi, func(uint64, *Record) bool { return true })
			}
		})
	}
}

// BenchmarkScanAny prices the unordered variant: per-shard sequential
// walks, no gather, no sort — the fast path for order-insensitive
// aggregates regardless of table churn.
func BenchmarkScanAny(b *testing.B) {
	for _, shards := range scanBenchShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tab := benchTable(shards)
			n := tab.Len()
			b.ReportAllocs()
			for b.Loop() {
				seen := 0
				tab.ScanAny(0, ^uint64(0), func(uint64, *Record) bool {
					seen++
					return true
				})
				if seen != n {
					b.Fatalf("scan saw %d of %d records", seen, n)
				}
			}
		})
	}
}

func BenchmarkAppend(b *testing.B) {
	rec := &Record{Key: 1}
	vers := make([]*Version, 1024)
	for i := range vers {
		vers[i] = &Version{TxnID: uint64(i), CommitTS: int64(i),
			Columns: []wal.Column{{ID: 1, Value: make([]byte, 16)}}}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		rec.Append(vers[i%len(vers)])
	}
}

func BenchmarkVisible(b *testing.B) {
	rec := &Record{Key: 1}
	for i := 1; i <= 64; i++ {
		rec.Append(&Version{TxnID: uint64(i), CommitTS: int64(i * 10)})
	}
	for i := 0; b.Loop(); i++ {
		if rec.Visible(int64((i%64+1)*10)) == nil {
			b.Fatal("version lost")
		}
	}
}

func BenchmarkVacuum(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mt := New()
		for key := uint64(1); key <= 1000; key++ {
			rec := mt.Table(1).GetOrCreate(key)
			for ts := int64(1); ts <= 20; ts++ {
				rec.Append(&Version{TxnID: uint64(ts), CommitTS: ts})
			}
		}
		b.StartTimer()
		mt.Vacuum(15)
	}
}
