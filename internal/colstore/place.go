package colstore

// place.go resolves where a table's delta lands in its base segment. The
// delta view (memtable.Delta) and the base are both immutable, and every
// read between a hot-list change and the next compaction pairs the same
// two, so each pair's positions are resolved once and shared: the read
// planner's merge then takes each delta key's shadowed base row from a
// word instead of searching the base for it on every operation.

import (
	"weak"

	"aets/internal/memtable"
)

// A placement word describes one delta key k in a base segment s: its
// lower bound (the first row with s.Keys[i] ≥ k) shifted left by
// PlaceShift, PlaceExact when s.Keys[i] == k, and PlaceLive when that row
// is also not a tombstone — the row a visible chain on k shadows.
const (
	PlaceLive  = 1 << 0
	PlaceExact = 1 << 1
	PlaceShift = 2
)

// placement is the cached placement of one delta view in the segment that
// holds it. It hangs off the segment it indexes, so it is collected with
// that segment, and it names its view only weakly, so it keeps no
// replaced view alive either.
type placement struct {
	view weak.Pointer[memtable.Delta]
	at   []uint32
}

// Placement returns the placement of every key of d in base: at[j] is
// the placement word of d.Keys[j]. base must be a segment of this table;
// the words are immutable and shared by every reader of the same (view,
// base) pair. The first caller for a pair builds it under the table's
// placement lock; a new view or a new base is a new pair.
func (ts *TableState) Placement(base *Segment, d *memtable.Delta) []uint32 {
	if pl := base.place.Load(); pl != nil && pl.view.Value() == d {
		return pl.at
	}
	ts.placeMu.Lock()
	defer ts.placeMu.Unlock()
	if pl := base.place.Load(); pl != nil && pl.view.Value() == d {
		return pl.at // another reader built it while we waited
	}
	at := base.placeAll(d.Keys)
	base.place.Store(&placement{view: weak.Make(d), at: at})
	return at
}

// placeAll places ascending keys by one monotone gallop through the base.
func (s *Segment) placeAll(keys []uint64) []uint32 {
	if len(s.Keys) >= 1<<(32-PlaceShift) {
		panic("colstore: segment too large for placement words")
	}
	at := make([]uint32, len(keys))
	pos := 0
	for j, k := range keys {
		pos = s.LowerBoundFrom(pos, k)
		at[j] = s.placeWord(pos, k)
	}
	return at
}

// Place returns the placement word of one key, by binary search.
func (s *Segment) Place(key uint64) uint32 {
	i, _ := s.Find(key)
	return s.placeWord(i, key)
}

// placeWord encodes key's placement given its lower bound i.
func (s *Segment) placeWord(i int, key uint64) uint32 {
	w := uint32(i) << PlaceShift
	if i < len(s.Keys) && s.Keys[i] == key {
		w |= PlaceExact
		if !s.Deleted(i) {
			w |= PlaceLive
		}
	}
	return w
}
