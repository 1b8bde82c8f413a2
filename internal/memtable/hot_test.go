package memtable

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aets/internal/wal"
)

func hotVersion(ts int64, cols ...wal.Column) *Version {
	return &Version{TxnID: uint64(ts), CommitTS: ts, Columns: cols}
}

// TestHotTracking pins the hot-list invariant: a record joins its shard's
// hot list on the empty→non-empty chain transition, leaves it (flag-wise)
// on FreezeCommit, and rejoins when re-dirtied.
func TestHotTracking(t *testing.T) {
	tab := New().Table(1)
	r := tab.GetOrCreate(42)
	if r.Hot() {
		t.Fatal("fresh record with empty chain must not be hot")
	}
	r.Append(hotVersion(10))
	if !r.Hot() {
		t.Fatal("record with a chain must be hot")
	}
	if got := tab.HotLen(); got != 1 {
		t.Fatalf("HotLen = %d, want 1", got)
	}

	h0 := r.Latest()
	froze, released := r.FreezeCommit(h0, 10)
	if !froze || released != 1 {
		t.Fatalf("FreezeCommit = (%v, %d), want (true, 1)", froze, released)
	}
	if r.Hot() || r.Latest() != nil {
		t.Fatal("frozen record must have empty chain and clear hot flag")
	}
	tab.PruneHot()
	if got := tab.HotLen(); got != 0 {
		t.Fatalf("HotLen after prune = %d, want 0", got)
	}

	// Re-dirty: back on the list and in the table's delta view.
	r.Append(hotVersion(20))
	if !r.Hot() {
		t.Fatal("re-dirtied record must be hot again")
	}
	if d := tab.Delta(); len(d.Recs) != 1 || d.Recs[0] != r || d.Keys[0] != 42 {
		t.Fatalf("Delta = %v %v, want [r] [42]", d.Recs, d.Keys)
	}
}

// TestFreezeCommitRaceFallback pins the freeze-vs-append race: when the
// head moved past the snapshot the segment row was built from, the commit
// degrades to a plain Vacuum and the record stays hot.
func TestFreezeCommitRaceFallback(t *testing.T) {
	tab := New().Table(1)
	r := tab.GetOrCreate(7)
	r.Append(hotVersion(10))
	h0 := r.Latest()
	r.Append(hotVersion(20)) // racing writer

	froze, _ := r.FreezeCommit(h0, 10)
	if froze {
		t.Fatal("FreezeCommit must not freeze after the head moved")
	}
	if !r.Hot() {
		t.Fatal("record must stay hot after the fallback")
	}
	// Vacuum fallback: chain keeps [20, 10] — h0 is the newest version at
	// or below the watermark, exactly the image the segment row holds.
	if v := r.Latest(); v == nil || v.CommitTS != 20 {
		t.Fatalf("head = %v, want ts 20", v)
	}
	if v := r.Latest().Next(); v != h0 || v.Next() != nil {
		t.Fatal("chain below head must be exactly h0")
	}
}

// TestGetOrCreateHitPathAllocs pins the index hit path at zero
// allocations: once a key exists, GetOrCreate must not allocate
// (satellite of the GetOrCreateParallel benchmark fix — the B/op the
// benchmark used to report came from table growth during timing, not
// from the hit path).
func TestGetOrCreateHitPathAllocs(t *testing.T) {
	tab := NewWithShards(8).Table(1)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i * 2654435761)
		tab.GetOrCreate(keys[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(4096, func() {
		tab.GetOrCreate(keys[i&1023])
		i++
	})
	if allocs != 0 {
		t.Fatalf("GetOrCreate hit path allocates %.1f/op, want 0", allocs)
	}
}

// Hot reports whether the record is currently on its shard's hot list.
func (r *Record) Hot() bool { return r.hotFlag.Load() }

// HotLen returns the current hot-list length across all shards (including
// stragglers not yet pruned).
func (t *Table) HotLen() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.hotMu.Lock()
		n += len(s.hot)
		s.hotMu.Unlock()
	}
	return n
}

// TestDeltaStress runs appenders on every shard beside Delta callers and a
// freezer that empties, prunes and re-dirties a separate key set (so the
// lists change both ways and hold duplicates). Every view must be sorted
// strictly ascending with Keys parallel to Recs, and must hold every
// record whose first Append returned before the Delta call began. Run it
// under -race.
func TestDeltaStress(t *testing.T) {
	const appenders, perAppender, churned = 4, 2000, 64
	tab := NewWithShards(8).Table(1)
	key := func(w, k int) uint64 { return uint64(k)*(appenders+1) + uint64(w) }

	var done [appenders]atomic.Int64 // keys [0, done) of each appender are in
	var wg sync.WaitGroup
	for w := range appenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range perAppender {
				tab.GetOrCreate(key(w, k)).Append(hotVersion(int64(k + 1)))
				done[w].Store(int64(k + 1))
			}
		}()
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // freezer: the churned keys leave the lists and come back
		defer bg.Done()
		for ts := int64(1); ; ts++ {
			select {
			case <-stop:
				return
			default:
			}
			for k := range churned {
				r := tab.GetOrCreate(key(appenders, k))
				if h := r.Latest(); h != nil && ts%2 == 0 {
					r.FreezeCommit(h, h.CommitTS)
				} else {
					r.Append(hotVersion(ts))
				}
			}
			if ts%3 == 0 {
				tab.PruneHot()
			}
		}
	}()
	check := func() bool {
		var want [appenders]int64
		for w := range want {
			want[w] = done[w].Load()
		}
		d := tab.Delta()
		if len(d.Recs) != len(d.Keys) {
			t.Errorf("Delta: %d records, %d keys", len(d.Recs), len(d.Keys))
			return false
		}
		for i, k := range d.Keys {
			if d.Recs[i].Key != k {
				t.Errorf("Delta: Keys[%d] = %d, record key %d", i, k, d.Recs[i].Key)
				return false
			}
			if i > 0 && d.Keys[i-1] >= k {
				t.Errorf("Delta: keys not strictly ascending at %d: %d then %d", i, d.Keys[i-1], k)
				return false
			}
		}
		for w, n := range want {
			for k := range int(n) {
				if _, ok := slices.BinarySearch(d.Keys, key(w, k)); !ok {
					t.Errorf("Delta misses key %d, appended before the call", key(w, k))
					return false
				}
			}
		}
		return true
	}
	for range 2 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !check() {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	check()
}
