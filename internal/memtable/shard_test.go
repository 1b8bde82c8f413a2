package memtable

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardedScanOrder pins the gather-and-sort Scan: a table whose keys are spread
// across many shards must still scan in ascending global key order, with
// bounds respected and early stop honoured.
func TestShardedScanOrder(t *testing.T) {
	tab := NewWithShards(8).Table(1)
	if len(tab.shards) != 8 {
		t.Fatalf("Shards = %d, want 8", len(tab.shards))
	}
	rng := rand.New(rand.NewSource(7))
	seen := map[uint64]bool{}
	var keys []uint64
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(1<<20)) + 1
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		tab.GetOrCreate(k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var got []uint64
	tab.Scan(0, ^uint64(0), func(k uint64, rec *Record) bool {
		if rec.Key != k {
			t.Fatalf("record key %d under scan key %d", rec.Key, k)
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("scan order broken at %d: got %d want %d", i, got[i], keys[i])
		}
	}

	// Bounded scan stays inside [lo, hi] and misses nothing.
	lo, hi := keys[len(keys)/3], keys[2*len(keys)/3]
	want := 0
	for _, k := range keys {
		if k >= lo && k <= hi {
			want++
		}
	}
	n, prev := 0, uint64(0)
	tab.Scan(lo, hi, func(k uint64, _ *Record) bool {
		if k < lo || k > hi {
			t.Fatalf("key %d escaped [%d,%d]", k, lo, hi)
		}
		if k <= prev {
			t.Fatalf("bounded scan out of order: %d after %d", k, prev)
		}
		prev = k
		n++
		return true
	})
	if n != want {
		t.Fatalf("bounded scan visited %d keys, want %d", n, want)
	}

	// Early stop.
	n = 0
	tab.Scan(0, ^uint64(0), func(uint64, *Record) bool { n++; return n < 17 })
	if n != 17 {
		t.Fatalf("early stop visited %d, want 17", n)
	}

	if msg := tab.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

// TestCheckInvariantsDetectsMisplacedKey makes sure the cross-shard
// disjointness check actually fires: a key planted in the wrong shard's
// tree must be reported.
func TestCheckInvariantsDetectsMisplacedKey(t *testing.T) {
	tab := NewWithShards(4).Table(1)
	key := uint64(12345)
	wrong := (tab.shardOf(key) + 1) & tab.mask
	tab.shards[wrong].t.insert(key, &Record{Key: key})
	if msg := tab.CheckInvariants(); msg == "" {
		t.Fatal("CheckInvariants missed a key planted in the wrong shard")
	}
}

// TestShardStress runs GetOrCreate writers against ordered Scans and a
// Vacuum loop on one sharded table. It asserts no lost records, global
// scan order under concurrency, and clean invariants afterwards; run
// with -race it is the translate-vs-analytics-vs-GC interleaving check.
func TestShardStress(t *testing.T) {
	mt := NewWithShards(8)
	tab := mt.Table(1)
	const writers = 4
	const perWriter = 3000

	var stop atomic.Bool
	var writersWG, bgWG sync.WaitGroup

	// Writers: disjoint key ranges, each key gets a couple of versions.
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			base := uint64(w*perWriter) + 1
			for i := uint64(0); i < perWriter; i++ {
				rec := tab.GetOrCreate(base + i)
				rec.Append(&Version{TxnID: base + i, CommitTS: int64(i%10) + 1})
				rec.Append(&Version{TxnID: base + i, CommitTS: int64(i%10) + 2})
			}
		}(w)
	}

	// Scanners: whatever an ordered scan observes must be ordered.
	for s := 0; s < 2; s++ {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			for !stop.Load() {
				prev := uint64(0)
				tab.Scan(0, ^uint64(0), func(k uint64, _ *Record) bool {
					if k <= prev {
						t.Errorf("concurrent scan out of order: %d after %d", k, prev)
						return false
					}
					prev = k
					return true
				})
			}
		}()
	}

	// Vacuum loop racing the writers and scanners.
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for !stop.Load() {
			mt.Vacuum(6)
			time.Sleep(time.Millisecond)
		}
	}()

	writersWG.Wait()
	stop.Store(true)
	bgWG.Wait()

	if got := tab.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	if msg := tab.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after stress: %s", msg)
	}
}

// TestAppendWritesCounterOrdering is the regression test for the
// writes-counter race: the counter is incremented before the new head is
// published, so a reader that walks the chain and THEN loads the counter
// must never see fewer counted writes than chain links. (The old code
// incremented after unlocking, so a reader could observe a head whose
// write was not yet counted; ATR's operation-sequence witness then
// mis-validated.) Run with -race.
func TestAppendWritesCounterOrdering(t *testing.T) {
	rec := &Record{Key: 1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 5000; i++ {
			rec.Append(&Version{TxnID: uint64(i), CommitTS: int64(i)})
		}
	}()
	for {
		l := rec.ChainLen() // chain first,
		w := rec.Writes()   // counter second: w may only run ahead
		if int(w) < l {
			t.Fatalf("Writes() = %d < ChainLen() = %d: head published before count", w, l)
		}
		select {
		case <-done:
			if rec.Writes() != 5000 || rec.ChainLen() != 5000 {
				t.Fatalf("final writes %d chain %d, want 5000/5000", rec.Writes(), rec.ChainLen())
			}
			return
		default:
		}
	}
}
