package memtable

import (
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

	// Re-dirty: back on the list, and HotRecords may legally hold the
	// record once (it was pruned) — consumers dedupe regardless.
	r.Append(hotVersion(20))
	if !r.Hot() {
		t.Fatal("re-dirtied record must be hot again")
	}
	recs := tab.HotRecords(nil)
	if len(recs) != 1 || recs[0] != r {
		t.Fatalf("HotRecords = %v, want [r]", recs)
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
