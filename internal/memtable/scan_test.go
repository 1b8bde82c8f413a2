package memtable

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refScan is the reference implementation the real scan variants are
// checked against: a flat map of every key ever inserted, filtered to
// [from, to] and (for ordered variants) sorted.
func refScan(keys map[uint64]bool, from, to uint64) []uint64 {
	out := make([]uint64, 0, len(keys))
	for k := range keys {
		if k >= from && k <= to {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// collect drives one scan variant and gathers the keys it emits,
// honoring an optional early-stop budget (limit < 0 means unlimited).
func collect(scan func(uint64, uint64, func(uint64, *Record) bool), from, to uint64, limit int) []uint64 {
	var got []uint64
	scan(from, to, func(k uint64, r *Record) bool {
		if r == nil {
			panic("scan emitted nil record")
		}
		got = append(got, k)
		return limit < 0 || len(got) < limit
	})
	return got
}

// checkVariants verifies both scan variants against the reference for one
// (from, to) range: Scan must match exactly (order included); ScanAny
// must match as a set.
func checkVariants(t *testing.T, tab *Table, keys map[uint64]bool, from, to uint64, limit int) {
	t.Helper()
	want := refScan(keys, from, to)
	if limit >= 0 && len(want) > limit {
		want = want[:limit]
	}

	got := collect(tab.Scan, from, to, limit)
	if len(got) != len(want) {
		t.Fatalf("Scan[%d,%d] limit=%d: %d keys, want %d", from, to, limit, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Scan[%d,%d] at %d: got %d want %d", from, to, i, got[i], want[i])
		}
	}

	got = collect(tab.ScanAny, from, to, limit)
	if limit >= 0 {
		// Early-stopped unordered scans only promise a prefix-sized subset
		// of the range — check membership and count.
		if len(got) != len(want) {
			t.Fatalf("ScanAny[%d,%d] limit=%d: %d keys, want %d", from, to, limit, len(got), len(want))
		}
		for _, k := range got {
			if !keys[k] || k < from || k > to {
				t.Fatalf("ScanAny[%d,%d]: emitted key %d outside the range or table", from, to, k)
			}
		}
		return
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		t.Fatalf("ScanAny[%d,%d]: %d keys, want %d", from, to, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ScanAny[%d,%d] at %d: got %d want %d (sorted)", from, to, i, got[i], want[i])
		}
	}
}

// TestScanVariantsZeroAlloc pins the steady-state allocation contract of
// every scan variant: after warmup (which grows the pooled gather
// buffers), repeated scans allocate nothing.
func TestScanVariantsZeroAlloc(t *testing.T) {
	for _, shards := range []int{1, 8} {
		tab := NewWithShards(shards).Table(1)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1<<12; i++ {
			tab.GetOrCreate(rng.Uint64() % (1 << 16))
		}
		n := tab.Len()
		variants := []struct {
			name string
			scan func(uint64, uint64, func(uint64, *Record) bool)
		}{{"Scan", tab.Scan}, {"ScanAny", tab.ScanAny}}
		for _, v := range variants {
			v := v
			t.Run(fmt.Sprintf("%s/shards=%d", v.name, shards), func(t *testing.T) {
				// The visitor closure and its counter live outside the
				// measured region: allocated once here, reused per run, so
				// AllocsPerRun charges only what the scan itself allocates.
				seen := 0
				fn := func(uint64, *Record) bool { seen++; return true }
				// Warm: grows Scan's pooled gather buffers.
				v.scan(0, ^uint64(0), fn)
				if seen != n {
					t.Fatalf("warmup saw %d of %d records", seen, n)
				}
				short := false
				allocs := testing.AllocsPerRun(10, func() {
					seen = 0
					v.scan(0, ^uint64(0), fn)
					short = short || seen != n
				})
				if short {
					t.Fatalf("a measured scan missed records (table has %d)", n)
				}
				if allocs > 0 {
					t.Fatalf("%s shards=%d: %.1f allocs/op, want 0", v.name, shards, allocs)
				}
			})
		}
	}
}

// FuzzScanVariants cross-checks Scan and ScanAny against the flat-map
// reference over fuzzer-chosen shard counts, key ranges and
// early-stop budgets. Each case is exercised before and after an extra
// batch of inserts, so a rescan of an unchanged table and a scan right
// after the table grew both reuse the pooled buffers, and the sentinel
// keys 0 and ^uint64(0) land in the data.
func FuzzScanVariants(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint64(0), uint64(1<<16), int16(-1))
	f.Add(uint64(2), uint8(0), uint64(0), ^uint64(0), int16(-1))
	f.Add(uint64(3), uint8(4), uint64(500), uint64(400), int16(5)) // inverted range
	f.Add(uint64(4), uint8(7), ^uint64(0)-10, ^uint64(0), int16(-1))
	f.Add(uint64(5), uint8(1), uint64(0), uint64(0), int16(1))
	f.Fuzz(func(t *testing.T, seed uint64, shardBits uint8, from, to uint64, stop int16) {
		shards := 1 << (shardBits % 5) // 1..16
		limit := int(stop)
		if limit < 0 {
			limit = -1
		}
		if limit == 0 {
			// The visitor always sees at least one key before it can say
			// stop, so a zero budget is really a budget of one.
			limit = 1
		}
		tab := NewWithShards(shards).Table(1)
		rng := rand.New(rand.NewSource(int64(seed)))
		keys := make(map[uint64]bool)
		insert := func(n int) {
			for i := 0; i < n; i++ {
				var k uint64
				switch rng.Intn(16) {
				case 0:
					k = 0
				case 1:
					k = ^uint64(0)
				case 2:
					k = ^uint64(0) - uint64(rng.Intn(8))
				default:
					k = rng.Uint64() % (1 << 14)
				}
				tab.GetOrCreate(k)
				keys[k] = true
			}
		}

		insert(200 + int(seed%800))
		// Insert phase, then the same range again and the full range.
		checkVariants(t, tab, keys, from, to, limit)
		checkVariants(t, tab, keys, from, to, limit)
		checkVariants(t, tab, keys, 0, ^uint64(0), -1)
		// Rescan phase: the table grew; every variant must see the new keys.
		insert(100)
		checkVariants(t, tab, keys, from, to, limit)
		checkVariants(t, tab, keys, 0, ^uint64(0), -1)
	})
}

// TestScanStress races full-range ordered Scans against concurrent
// GetOrCreate and Vacuum on the same table (run under -race by `make
// race`): each shard is read-locked only while its range is gathered, and
// the callback runs with writers live. Concurrently inserted keys may or
// may not be observed; the invariants are: emitted keys are strictly
// ascending, every emitted key really exists, and every key present before
// the scans started is seen.
func TestScanStress(t *testing.T) {
	tab := NewWithShards(8).Table(1)
	rng := rand.New(rand.NewSource(11))
	base := make(map[uint64]bool)
	for i := 0; i < 1<<12; i++ {
		k := rng.Uint64() % (1 << 18)
		rec := tab.GetOrCreate(k)
		rec.Append(&Version{TxnID: k, CommitTS: int64(i + 1)})
		base[k] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A small fresh-key range: early scans race inserts that
				// split leaves, and once the range saturates later scans
				// race Append and Vacuum mutating the chains they visit.
				k := (1 << 18) + rng.Uint64()%(1<<11)
				rec := tab.GetOrCreate(k)
				rec.Append(&Version{TxnID: k, CommitTS: 1 << 30})
			}
		}(int64(100 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tab.Vacuum(1)
		}
	}()

	for iter := 0; iter < 50; iter++ {
		last := int64(-1) // keys fit in int64 here; -1 sentinels "none yet"
		seen := 0
		tab.Scan(0, ^uint64(0), func(k uint64, r *Record) bool {
			if int64(k) <= last {
				t.Errorf("iter %d: order broken: %d after %d", iter, k, last)
				return false
			}
			last = int64(k)
			if r == nil {
				t.Errorf("iter %d: nil record for key %d", iter, k)
				return false
			}
			if base[k] {
				seen++
			}
			return true
		})
		if seen != len(base) {
			t.Fatalf("iter %d: saw %d of %d pre-existing keys", iter, seen, len(base))
		}
	}
	close(stop)
	wg.Wait()
}
