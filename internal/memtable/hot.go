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
// if it was frozen and re-dirtied between prunes — so consumers sort by
// key and dedupe (keys are unique within a table, so equal keys mean the
// same record).

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

// HotRecords appends every hot record of the table to buf and returns it.
// The result is unordered and may contain recently-frozen stragglers and
// duplicates (see the file comment); callers sort by key and dedupe.
func (t *Table) HotRecords(buf []*Record) []*Record {
	for i := range t.shards {
		s := &t.shards[i]
		s.hotMu.Lock()
		buf = append(buf, s.hot...)
		s.hotMu.Unlock()
	}
	return buf
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
		for j := len(kept); j < len(s.hot); j++ {
			s.hot[j] = nil
		}
		s.hot = kept
		s.hotMu.Unlock()
	}
}
