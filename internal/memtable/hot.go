package memtable

// hot.go tracks which records carry an in-memory version chain — the "hot
// delta" the columnar store leaves behind. Freezing a record into a
// columnar segment empties its chain (FreezeCommit); the per-shard hot
// lists let the compactor find freeze candidates and let the query
// planner enumerate the delta without walking the whole tree, which is
// what keeps columnar scans O(segment + delta) instead of O(records).
//
// Invariant: every record whose chain is non-empty is on its shard's hot
// list. The list is an over-approximation — it may also hold records
// frozen since the last PruneHot, and a record can appear more than once
// if it was frozen and re-dirtied between prunes. Consumers do not sort
// or dedupe it themselves: they read Table.Delta, one key-ordered,
// deduplicated view per table that is rebuilt only when a hot list has
// changed. Frozen stragglers in the view have empty chains, so a reader's
// Visible drops them.

import "slices"

// Delta is an immutable key-ordered view of a table's hot records: Recs
// sorted by key with no key twice, Keys[i] == Recs[i].Key. It is shared by
// every reader of the table until a hot list changes; callers must not
// write to either slice.
type Delta struct {
	Recs []*Record
	Keys []uint64
	gen  uint64 // sum of the shards' hotGen when the build began
}

// hotGen sums the shards' hot-list change counters. Each only goes up,
// so an unchanged sum means no list changed.
func (t *Table) hotGen() uint64 {
	var g uint64
	for i := range t.shards {
		g += t.shards[i].hotGen.Load()
	}
	return g
}

// Delta returns the table's hot records sorted by key and deduplicated.
// The view is cached and reused while no hot list has changed; a change
// makes the next caller rebuild it under the table's delta lock.
//
// A record whose Append returned before Delta was called is in the view:
// markHot appends the record to its shard's list and bumps that shard's
// counter under one hotMu critical section, a build reads the counters
// before it gathers the lists, and a reader reuses a view only when the
// counters still sum to what its build read. So a version at or below a
// query's admitted snapshot — appended before its epoch published, hence
// before the query began — is never missing from the view the query reads.
func (t *Table) Delta() *Delta {
	gen := t.hotGen()
	if d := t.delta.Load(); d != nil && d.gen == gen {
		return d
	}
	t.deltaMu.Lock()
	defer t.deltaMu.Unlock()
	gen = t.hotGen()
	if d := t.delta.Load(); d != nil && d.gen == gen {
		return d // another caller rebuilt it while we waited
	}
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.hotMu.Lock()
		n += len(s.hot)
		s.hotMu.Unlock()
	}
	// Lists may grow between the sizing pass and the gather; append copes.
	recs, keys := make([]*Record, 0, n), make([]uint64, 0, n)
	for i := range t.shards {
		s := &t.shards[i]
		s.hotMu.Lock()
		for _, r := range s.hot {
			recs, keys = append(recs, r), append(keys, r.Key)
		}
		s.hotMu.Unlock()
	}
	t.deltaTmpR = slices.Grow(t.deltaTmpR[:0], len(recs))[:len(recs)]
	t.deltaTmpK = slices.Grow(t.deltaTmpK[:0], len(keys))[:len(keys)]
	recs, keys = SortDedupePairs(recs, keys, t.deltaTmpR, t.deltaTmpK)
	d := &Delta{Recs: recs, Keys: keys, gen: gen}
	t.delta.Store(d)
	return d
}

// markHot puts the record on its shard's hot list. Called with r.mu held,
// on the empty→non-empty chain transition; the CAS makes it idempotent.
// Records created outside a Table (unit-test trees) have no shard and are
// never tracked.
func (r *Record) markHot() {
	s := r.hotAt
	if s == nil || !r.hotFlag.CompareAndSwap(false, true) {
		return
	}
	s.hotMu.Lock()
	s.hot = append(s.hot, r)
	s.hotGen.Add(1)
	s.hotMu.Unlock()
}

// FreezeCommit is the commit point of freezing this record into a columnar
// segment: if the chain head is still h0 (the version the caller built the
// segment row from) and h0 is at or below the freeze watermark, the entire
// chain is unlinked, every version is released back to its arena, and the
// record drops off the hot list (flag only; PruneHot compacts the list).
//
// If a writer raced the freeze — the head moved past h0 — the segment row
// the caller already built is still a correct base image (it equals the
// version a Vacuum at the watermark would have kept), so the fallback is
// exactly that Vacuum: the chain keeps its post-watermark suffix plus h0,
// the record stays hot, and reads stitch the chain over the base row.
//
// Same safety contract as Vacuum: no reader may be traversing versions the
// watermark retires, and stragglers that already hold a chain pointer keep
// a consistent view until the arena fence recycles it.
func (r *Record) FreezeCommit(h0 *Version, watermark int64) (froze bool, released int) {
	r.mu.Lock()
	if h0 != nil && r.head.Load() == h0 && h0.CommitTS <= watermark {
		n := 0
		for v := h0; v != nil; v = v.Next() {
			n++
			if a := v.arena; a != nil {
				a.release(1)
			}
		}
		r.head.Store(nil)
		r.hotFlag.Store(false)
		r.mu.Unlock()
		return true, n
	}
	r.mu.Unlock()
	return false, r.Vacuum(watermark)
}

// PruneHot compacts the hot lists, dropping entries whose records were
// frozen since the last prune. The compactor calls it once per pass, which
// bounds the straggler population between passes.
func (t *Table) PruneHot() {
	for i := range t.shards {
		s := &t.shards[i]
		s.hotMu.Lock()
		kept := s.hot[:0]
		for _, r := range s.hot {
			if r.hotFlag.Load() {
				kept = append(kept, r)
			}
		}
		if len(kept) < len(s.hot) {
			clear(s.hot[len(kept):])
			s.hot = kept
			s.hotGen.Add(1)
		}
		s.hotMu.Unlock()
	}
}
