package colstore

import (
	"testing"

	"aets/internal/memtable"
	"aets/internal/wal"
)

// TestPlacementFollowsViewAndBase checks every placement word against
// Find and Deleted over a base with tombstones, and that a placement is
// reused only for the same (view, base) pair: a new base under the same
// view and a new view over the same base each get their own.
//
// The first case happens in production: a compaction pass whose
// FreezeCommits all fell back to Vacuum publishes a base that now holds
// the delta's keys, yet prunes nothing from the hot lists, so the view is
// unchanged. The fixture builds that pair directly: a placement keyed on
// the view alone would leave keys 5, 30 and 45 unplaced in the new base,
// and one keyed on the base alone would return five words for six keys.
func TestPlacementFollowsViewAndBase(t *testing.T) {
	tab := memtable.New().Table(1)
	put := func(keys ...uint64) {
		for _, k := range keys {
			tab.GetOrCreate(k).Append(&memtable.Version{TxnID: 1, CommitTS: 1})
		}
	}
	segment := func(keys []uint64, dead ...uint64) *Segment {
		b := NewBuilder(1, len(keys))
		for _, k := range keys {
			del := false
			for _, d := range dead {
				del = del || d == k
			}
			b.Add(k, 1, 1, del, []wal.Column{{ID: 1, Value: le64(k)}})
		}
		return b.Build()
	}
	st := NewStore().Table(1)
	check := func(name string, base *Segment, d *memtable.Delta) []uint32 {
		t.Helper()
		at := st.Placement(base, d)
		if len(at) != len(d.Keys) {
			t.Fatalf("%s: %d placement words for %d delta keys", name, len(at), len(d.Keys))
		}
		for j, k := range d.Keys {
			i, found := base.Find(k)
			want := uint32(i) << PlaceShift
			if found {
				want |= PlaceExact
				if !base.Deleted(i) {
					want |= PlaceLive
				}
			}
			if at[j] != want || base.Place(k) != want {
				t.Fatalf("%s: key %d placed %#x (Place %#x), want %#x", name, k, at[j], base.Place(k), want)
			}
		}
		if again := st.Placement(base, d); &again[0] != &at[0] {
			t.Fatalf("%s: the same pair was placed twice", name)
		}
		return at
	}

	put(5, 10, 20, 30, 45)
	view := tab.Delta()
	oldBase := segment([]uint64{0, 10, 20, 40}, 20)
	newBase := segment([]uint64{0, 5, 10, 20, 30, 40, 45}, 20, 45)
	check("old base", oldBase, view)
	check("new base, same view", newBase, view)

	put(35)
	next := tab.Delta()
	if next == view {
		t.Fatal("a new hot record did not produce a new view")
	}
	check("same base, new view", newBase, next)
	check("old base again", oldBase, view)
}
