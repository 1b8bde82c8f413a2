package colstore

import (
	"sync"

	"aets/internal/memtable"
	"aets/internal/wal"
)

// Compactor drives epoch-aligned freezing: each RunOnce takes the caller's
// watermark (the same "no reader below this" timestamp Vacuum takes — the
// natural cadence is the GC loop's) and, per table, freezes every record
// whose entire chain is at or below it, merging the frozen rows with the
// table's previous base segment into a fresh immutable segment.
//
// The pass is: collect candidates and snapshot their head versions with no
// table-wide lock held; build the merged segment (deep-copying all value
// bytes); then, under the table's write lock, publish the new base and
// FreezeCommit every candidate. Readers hold the read lock for the span of
// one operation, so they observe the publish and the chain unlinks
// atomically. A writer that raced a candidate (appended past the
// watermark) is detected by FreezeCommit's head check and degrades to a
// plain Vacuum — its segment row stays a correct base under the new chain.
type Compactor struct {
	mt    *memtable.Memtable
	store *Store

	mu   sync.Mutex // one pass at a time
	rows []frozenRow
}

type frozenRow struct {
	rec *memtable.Record
	h0  *memtable.Version
}

// NewCompactor returns a compactor freezing mt's cold chains into store.
func NewCompactor(mt *memtable.Memtable, store *Store) *Compactor {
	return &Compactor{mt: mt, store: store}
}

// RunOnce performs one compaction pass at the given watermark and returns
// the number of rows frozen. Watermarks must not decrease across calls and
// must respect the same contract as Vacuum: no active or future query may
// read below it. Zero or negative watermarks are no-ops (mirrors the GC
// loop's "nothing visible yet" guard).
func (c *Compactor) RunOnce(watermark int64) int {
	if watermark <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	frozen := 0
	for _, id := range c.mt.Tables() {
		frozen += c.compactTable(id, watermark)
	}
	if frozen > 0 {
		c.store.FrozenRows.Add(int64(frozen))
	}
	c.store.Compactions.Add(1)
	return frozen
}

func (c *Compactor) compactTable(id wal.TableID, watermark int64) int {
	tab := c.mt.Table(id)

	// Candidates: hot records whose newest version is at or below the
	// watermark. Chains are strictly decreasing in CommitTS, so the head
	// check covers the whole chain. The head snapshot (h0) is what the
	// segment row is built from and what FreezeCommit verifies.
	c.rows = c.rows[:0]
	for _, rec := range tab.Delta().Recs {
		h0 := rec.Latest()
		if h0 == nil || h0.CommitTS > watermark {
			continue
		}
		c.rows = append(c.rows, frozenRow{rec: rec, h0: h0})
	}
	if len(c.rows) == 0 {
		tab.PruneHot()
		return 0
	}

	st := c.store.Table(id)
	old := st.Base()

	// Build the merged segment outside any lock: old base overlaid with
	// the new rows, newer wins on key collision. Both inputs are key-
	// sorted. Tombstones are kept — a frozen delete must keep shadowing
	// the key (and digesting/checkpointing like the tombstone version the
	// row store would have retained).
	b := NewBuilder(id, len(c.rows)+oldLen(old))
	oi, ni := 0, 0
	for oi < oldLen(old) || ni < len(c.rows) {
		switch {
		case ni >= len(c.rows) || (oi < oldLen(old) && old.Keys[oi] < c.rows[ni].rec.Key):
			b.Add(old.Keys[oi], old.CommitTS[oi], old.TxnID[oi], old.Deleted(oi), old.AppendRowColumns(oi, nil))
			oi++
		default:
			r := c.rows[ni]
			b.Add(r.rec.Key, r.h0.CommitTS, r.h0.TxnID, r.h0.Deleted, r.h0.Columns)
			if oi < oldLen(old) && old.Keys[oi] == r.rec.Key {
				oi++ // superseded by the re-frozen row
			}
			ni++
		}
	}
	seg := b.Build()

	// Commit: publish the segment and empty the frozen chains under the
	// table's write lock, so no reader can see a base without the rows
	// whose chains are already gone (or vice versa).
	st.mu.Lock()
	if old == nil {
		c.store.Segments.Add(1)
	}
	st.base.Store(seg)
	frozen := 0
	for _, r := range c.rows {
		if ok, _ := r.rec.FreezeCommit(r.h0, watermark); ok {
			frozen++
		}
	}
	st.mu.Unlock()

	tab.PruneHot()
	return frozen
}

func oldLen(s *Segment) int {
	if s == nil {
		return 0
	}
	return s.Len()
}
