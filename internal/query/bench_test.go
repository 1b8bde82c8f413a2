package query

import (
	"math/rand"
	"testing"

	"aets/internal/colstore"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// benchState is the shared majority-frozen fixture: 1<<16 random keys
// below 1<<20 through 8 shards (the same population as the memtable scan
// benchmarks), every one frozen into the columnar base, then a hot delta
// of hot updates (1024 in the archived set) re-dirtied on top. The row-store twin holds the identical
// visible state in vacuumed chains and no base at all, so Columnar-vs-Row
// sub-benchmarks price the two sides of the planner's one selection (is
// there a base segment?) over the same data.
type benchState struct {
	vis   *fakeVis
	exC   *Executor // columnar: base segment + hot delta
	exR   *Executor // row-store twin: empty base, every record is delta
	rows  int       // live rows at the snapshot
	ts    int64     // snapshot timestamp
	maxTS int64     // expected MaxCommitTS (newest live version)
	cold  uint64    // a live key that is frozen and not in the hot delta
}

func newBenchState(tb testing.TB, hot int) *benchState {
	tb.Helper()
	st := &benchState{vis: &fakeVis{}}
	mtC := memtable.NewWithShards(8)
	mtR := memtable.NewWithShards(8)
	cs := colstore.NewStore()
	comp := colstore.NewCompactor(mtC, cs)
	st.exC = NewExecutor(mtC, st.vis, cs)
	st.exR = NewExecutor(mtR, st.vis, nil)

	put := func(key uint64, del bool) {
		st.ts++
		var cols []wal.Column
		if !del {
			cols = []wal.Column{colI64(int64(key % 1000)), {ID: 2, Value: []byte("payload")}}
		}
		for _, mt := range []*memtable.Memtable{mtC, mtR} {
			mt.Table(1).GetOrCreate(key).Append(&memtable.Version{
				TxnID: uint64(st.ts), CommitTS: st.ts, Deleted: del, Columns: cols,
			})
		}
	}

	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 0, 1<<16)
	seen := make(map[uint64]bool, 1<<16)
	for len(keys) < 1<<16 {
		k := rng.Uint64() % (1 << 20)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		put(k, i%64 == 63)
	}
	// Freeze everything: the row twin vacuums at the same watermark.
	w := st.ts
	mtR.Vacuum(w)
	mtC.Vacuum(w)
	if comp.RunOnce(w) == 0 {
		tb.Fatal("bench fixture: nothing froze")
	}
	// Hot delta over the frozen base: updates, a few deletes.
	for i := 0; i < hot; i++ {
		put(keys[i*37%len(keys)], i%64 == 63)
	}
	st.vis.ts.Store(st.ts)
	st.cold = keys[1] // 37·i ≢ 1 (mod 1<<16) for every i < 7085

	// Sanity: both paths agree before we price them.
	cC, err1 := st.exC.Begin(st.ts, 1).Count(1)
	cR, err2 := st.exR.Begin(st.ts, 1).Count(1)
	if err1 != nil || err2 != nil || cC != cR || cC == 0 {
		tb.Fatalf("bench fixture diverged: col=%d row=%d (%v/%v)", cC, cR, err1, err2)
	}
	st.rows = cC
	mC, _ := st.exC.Begin(st.ts, 1).MaxCommitTS(1)
	mR, _ := st.exR.Begin(st.ts, 1).MaxCommitTS(1)
	if mC != mR || mC == 0 {
		tb.Fatalf("bench fixture MaxCommitTS diverged: col=%d row=%d", mC, mR)
	}
	st.maxTS = mC
	return st
}

var benchCols = []uint32{1, 2}

// BenchmarkColumnarScan prices full-range scans over the majority-frozen
// table, archived in BENCH_query.json. keys is the vectorized batch scan
// (bulk copies over the segment vectors — the direct counterpart of the
// memtable's merged-view ride in BENCH_memtable.json); cols extracts two
// column values per row on top. Both run at 0 allocs/op; compare against
// BenchmarkRowScan for the chain-walking price of the same reads.
func BenchmarkColumnarScan(b *testing.B) {
	st := newBenchState(b, 1024)
	benchScans(b, st, st.exC)
}

// BenchmarkRowScan is the never-compacted side of BenchmarkColumnarScan:
// the same calls through the same planner with an empty base, so every
// row is resolved from its vacuumed version chain.
func BenchmarkRowScan(b *testing.B) {
	st := newBenchState(b, 1024)
	benchScans(b, st, st.exR)
}

// BenchmarkColumnarAggregate prices the aggregate shortcuts over the
// frozen base: precomputed segment stats plus an O(hot-delta) adjustment,
// instead of touching every row. Count-churn is the worst case of the
// table's shared delta view: one record is frozen and re-dirtied before
// every Count, so every Count rebuilds (gathers and sorts) the view and
// places it in the base again. The delta4k cases read a 4096-update
// delta through one reused view, where placing each delta key in the
// base is most of an operation's work unless it is done once.
func BenchmarkColumnarAggregate(b *testing.B) {
	st := newBenchState(b, 1024)
	benchAggregates(b, st, st.exC)
	b.Run("Count-churn", func(b *testing.B) {
		tab := st.exC.mt.Table(1)
		rec := tab.Get(st.cold)
		s := st.exC.Begin(st.ts, 1)
		b.ReportAllocs()
		for b.Loop() {
			// The new version is newer than the snapshot, so the base
			// row still answers and Count holds.
			if h := rec.Latest(); h != nil {
				rec.FreezeCommit(h, h.CommitTS)
			}
			tab.PruneHot()
			rec.Append(&memtable.Version{CommitTS: st.ts + 1, Columns: []wal.Column{colI64(1)}})
			if n, err := s.Count(1); err != nil || n != st.rows {
				b.Fatalf("Count = %d, %v", n, err)
			}
		}
	})
	big := newBenchState(b, 4096)
	s := big.exC.Begin(big.ts, 1)
	b.Run("SumInt64-delta4k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if v, err := s.SumInt64(1, 1); err != nil || v == 0 {
				b.Fatalf("SumInt64 = %d, %v", v, err)
			}
		}
	})
	b.Run("ScanKeys-delta4k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			seen := 0
			_ = s.ScanKeys(1, 0, ^uint64(0), func(keys []uint64, _ []int64) bool {
				seen += len(keys)
				return true
			})
			if seen != big.rows {
				b.Fatalf("scan saw %d of %d rows", seen, big.rows)
			}
		}
	})
}

// BenchmarkRowAggregate is the never-compacted side of
// BenchmarkColumnarAggregate: with an empty base there are no footer
// stats, so every aggregate walks all chains.
func BenchmarkRowAggregate(b *testing.B) {
	st := newBenchState(b, 1024)
	benchAggregates(b, st, st.exR)
}

// benchScans runs the keys and cols full-range scans over ex.
func benchScans(b *testing.B, st *benchState, ex *Executor) {
	s := ex.Begin(st.ts, 1)
	b.Run("keys", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			seen := 0
			_ = s.ScanKeys(1, 0, ^uint64(0), func(keys []uint64, _ []int64) bool {
				seen += len(keys)
				return true
			})
			if seen != st.rows {
				b.Fatalf("scan saw %d of %d rows", seen, st.rows)
			}
		}
	})
	b.Run("cols", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			seen := 0
			_ = s.ScanCols(1, 0, ^uint64(0), benchCols, func(uint64, int64, [][]byte) bool {
				seen++
				return true
			})
			if seen != st.rows {
				b.Fatalf("scan saw %d of %d rows", seen, st.rows)
			}
		}
	})
}

// benchAggregates runs SumInt64, Count and MaxCommitTS over ex.
func benchAggregates(b *testing.B, st *benchState, ex *Executor) {
	s := ex.Begin(st.ts, 1)
	b.Run("SumInt64", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if v, err := s.SumInt64(1, 1); err != nil || v == 0 {
				b.Fatalf("SumInt64 = %d, %v", v, err)
			}
		}
	})
	b.Run("Count", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if n, err := s.Count(1); err != nil || n != st.rows {
				b.Fatalf("Count = %d, %v", n, err)
			}
		}
	})
	b.Run("MaxCommitTS", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if ts, err := s.MaxCommitTS(1); err != nil || ts != st.maxTS {
				b.Fatalf("MaxCommitTS = %d, %v", ts, err)
			}
		}
	})
}
