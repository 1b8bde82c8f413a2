package colstore

import (
	"sync"
	"sync/atomic"

	"aets/internal/wal"
)

// Store holds the columnar state of one node: per table, at most one base
// segment (each compaction pass merges the old base with the newly frozen
// rows into a fresh immutable segment — the delta-merge write side), plus
// the operational counters the observability surface scrapes.
type Store struct {
	tabs atomic.Pointer[map[wal.TableID]*TableState]
	mu   sync.Mutex // serialises TableState creation (schema-sized, rare)

	// Counters. Segments counts tables with a live base segment;
	// FrozenRows and Compactions are cumulative; PruneHits/PruneMisses
	// count planner decisions — a hit is a segment skipped whole via its
	// footer (key range or ts), a miss is a segment that had to be read.
	Segments    atomic.Int64
	FrozenRows  atomic.Int64
	Compactions atomic.Int64
	PruneHits   atomic.Int64
	PruneMisses atomic.Int64
}

// NewStore returns an empty columnar store.
func NewStore() *Store {
	s := &Store{}
	empty := map[wal.TableID]*TableState{}
	s.tabs.Store(&empty)
	return s
}

// TableState is one table's columnar side: the base segment behind an
// atomic pointer (readers load it once per operation), and the reader/
// compactor lock that makes "chain empty ⇒ the base I loaded has the row"
// a real invariant: the compactor publishes a new base and empties the
// frozen chains under the write lock, so a reader inside the read lock
// sees either the old world (chains intact) or the new one (base has
// every frozen row) — never the torn middle.
type TableState struct {
	mu      sync.RWMutex
	base    atomic.Pointer[Segment]
	placeMu sync.Mutex // serialises placement builds (Placement)
}

// Base returns the current base segment, or nil before the first
// compaction. Callers that correlate the segment with chain reads must
// hold RLock around both (query does; see planner).
func (ts *TableState) Base() *Segment { return ts.base.Load() }

// RLock/RUnlock bracket a read operation that stitches the base segment
// with record chains.
func (ts *TableState) RLock()   { ts.mu.RLock() }
func (ts *TableState) RUnlock() { ts.mu.RUnlock() }

// Get returns the table's columnar state, or nil if the table was never
// compacted. Lock-free; the planner's per-query fast path.
func (s *Store) Get(id wal.TableID) *TableState {
	return (*s.tabs.Load())[id]
}

// Table returns the table's columnar state, creating it if absent.
func (s *Store) Table(id wal.TableID) *TableState {
	if ts := s.Get(id); ts != nil {
		return ts
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.tabs.Load()
	if ts := old[id]; ts != nil {
		return ts
	}
	ts := &TableState{}
	next := make(map[wal.TableID]*TableState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = ts
	s.tabs.Store(&next)
	return ts
}

// Tables returns the IDs of all tables with columnar state.
func (s *Store) Tables() []wal.TableID {
	m := *s.tabs.Load()
	out := make([]wal.TableID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}

// Lookup resolves the frozen row image of (table, key), if one exists:
// the single-version image a Vacuum at the freeze watermark would have
// kept. Checkpoint writers and state digests use it to cover records
// whose chains the compactor emptied. The columns slice is freshly
// allocated; its values alias the segment.
func (s *Store) Lookup(id wal.TableID, key uint64) (txn uint64, ts int64, deleted bool, cols []wal.Column, ok bool) {
	st := s.Get(id)
	if st == nil {
		return 0, 0, false, nil, false
	}
	seg := st.Base()
	if seg == nil {
		return 0, 0, false, nil, false
	}
	i, found := seg.Find(key)
	if !found {
		return 0, 0, false, nil, false
	}
	return seg.TxnID[i], seg.CommitTS[i], seg.Deleted(i), seg.AppendRowColumns(i, nil), true
}
