package query

// plan.go is the read planner. Every snapshot operation resolves as one
// immutable base segment plus a delta of version chains, stitched with
// newest-wins semantics; a row-store node or a never-compacted table is
// the same plan with an empty base.
//
// Consistency model. The freeze rule (colstore) guarantees a base row is
// exactly the version a Vacuum at the freeze watermark would have kept,
// and legal snapshots sit at or above that watermark, so every base row is
// visible (CommitTS ≤ watermark ≤ qts) unless a chain shadows it. Per
// record, the stitch is:
//
//   - chain visible at qts → the chain wins: its columns merge
//     newest-first, and if the walk reaches the chain end without hitting
//     a tombstone, the base row's columns fill in underneath (the base row
//     is the chain's vacuumed predecessor);
//   - chain invisible at qts (all post-freeze versions are newer) → the
//     base row alone, exactly what a vacuumed row store would show;
//   - tombstones shadow: a deleted visible version hides the row, a
//     deleted base row contributes nothing and blocks fill-down.
//
// walk is the one place these rules are applied; the operations in
// query.go only say what to do with the base runs and delta rows it
// yields.
//
// On a columnar node the plan holds the table's colstore read lock for the
// span of one operation, so a concurrent compaction pass (publish new base
// + empty the frozen chains) is observed atomically — "chain empty" always
// implies "the base I loaded has the row", and a first compaction cannot
// tear a read that found no base yet.

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"aets/internal/colstore"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// scanKeysBatch is the ScanKeys output vector length: large enough that
// the per-batch callback amortises to nothing, small enough to stay
// cache-resident (4096 rows = 64 KiB of keys + timestamps).
const scanKeysBatch = 4096

// deltaBlock is how many delta records merge resolves at a time. Working
// in blocks keeps the tree walk, the chain resolution and the consumer (a
// cache miss per record each) in separate tight loops, which overlap their
// misses far better than one deep callback chain per record does, while
// a block's versions are still in L1 when the consumer reads them.
const deltaBlock = 256

// plan is one operation's resolved read over [from, to]. It is pooled per
// executor together with its buffers, so steady-state scans and aggregates
// run allocation-free.
type plan struct {
	s        *Snapshot
	tab      *memtable.Table
	st       *colstore.TableState // non-nil: read lock held until end
	from, to uint64

	// base rows [pos, bn) are still to be read; walk advances pos. base
	// is nil when no base rows participate: a row-store node, a table
	// never compacted, or a segment pruned whole by its footer.
	base    *colstore.Segment
	pos, bn int
	// compacted reports that the table has a base segment (pruned or
	// not): its frozen chains are empty, so the hot lists enumerate the
	// delta. Without one, every record is delta and the table's own index
	// enumerates it in O(range).
	compacted bool

	vals   [][]byte
	colIdx []int
	excl   []int
	keys   [deltaBlock]uint64 // merge's per-block row vectors
	vers   [deltaBlock]*memtable.Version
	at     [deltaBlock]uint32
	shadow [deltaBlock]int
	// blockR/blockK (and pointAt) hold the delta a point read and the
	// never-compacted path collect themselves. A compacted range read
	// merges a window of the table's shared Delta view and of its
	// placement in the base instead, which the plan never writes.
	blockR  [deltaBlock]*memtable.Record
	blockK  [deltaBlock]uint64
	pointAt [1]uint32
	batchK  []uint64 // ScanKeys output batch
	batchT  []int64
}

// begin resolves the plan for [from, to] of table. Callers defer end.
func (s *Snapshot) begin(table wal.TableID, from, to uint64) *plan {
	e := s.ex
	p, _ := e.plans.Get().(*plan)
	if p == nil {
		p = &plan{}
	}
	p.s, p.tab, p.from, p.to = s, e.mt.Table(table), from, to
	if e.cs == nil {
		return p
	}
	p.st = e.cs.Table(table)
	p.st.RLock()
	base := p.st.Base()
	if base == nil {
		return p
	}
	p.compacted = true
	// A segment whose whole key range misses [from, to], or whose oldest
	// row is newer than the snapshot (only possible for queries below the
	// freeze watermark, outside the read contract), is skipped whole.
	if base.Len() == 0 || to < base.MinKey || from > base.MaxKey || s.TS < base.MinTS {
		e.cs.PruneHits.Add(1)
		return p
	}
	e.cs.PruneMisses.Add(1)
	p.base = base
	p.pos, p.bn = base.LowerBound(from), base.Len()
	if to < base.MaxKey { // so to+1 cannot wrap
		p.bn = base.LowerBoundFrom(p.pos, to+1)
	}
	return p
}

// end releases the table lock and returns the plan to the pool.
func (p *plan) end() {
	if p.st != nil {
		p.st.RUnlock()
	}
	e := p.s.ex
	p.s, p.tab, p.st, p.base = nil, nil, nil, nil
	p.pos, p.bn, p.compacted = 0, 0, false
	e.plans.Put(p)
}

// gather returns the delta of a compacted table restricted to [from, to],
// in ascending key order with parallel keys and, when a base participates,
// parallel placement words (colstore.Placement): a window of the table's
// shared sorted view, found by two binary searches, and the same window of
// that view's placement in the base. A point read asks the index for its
// one candidate and places it in the base itself.
func (p *plan) gather() ([]*memtable.Record, []uint64, []uint32) {
	if p.from == p.to {
		rec := p.tab.Get(p.from)
		if rec == nil {
			return nil, nil, nil
		}
		p.blockR[0], p.blockK[0] = rec, p.from
		if p.base == nil {
			return p.blockR[:1], p.blockK[:1], nil
		}
		p.pointAt[0] = p.base.Place(p.from)
		return p.blockR[:1], p.blockK[:1], p.pointAt[:]
	}
	d := p.tab.Delta()
	lo, _ := slices.BinarySearch(d.Keys, p.from)
	hi := len(d.Keys)
	if p.to < ^uint64(0) {
		hi, _ = slices.BinarySearch(d.Keys[lo:], p.to+1)
		hi += lo // ≥ lo, so an empty range (from > to) is an empty window
	}
	if p.base == nil {
		return d.Recs[lo:hi], d.Keys[lo:hi], nil
	}
	return d.Recs[lo:hi], d.Keys[lo:hi], p.st.Placement(p.base, d)[lo:hi]
}

// runFunc receives base rows [i, e), all live and shadowed by no chain.
type runFunc func(i, e int) bool

// deltaFunc receives a batch of delta rows as parallel vectors: the key,
// the newest visible version of its chain (possibly a tombstone), and the
// live base row it shadows, or -1 when it shadows none (absent,
// tombstoned, or no base).
type deltaFunc func(keys []uint64, vers []*memtable.Version, shadow []int) bool

// walk is the merge driver: it yields the read as base runs and delta
// row batches. With run non-nil the pieces arrive in ascending key order. A nil run
// means the caller accounts for the base from the segment's footer stats
// and only wants the delta adjustments, in any order. Either callback
// returning false stops the walk; walk reports whether it ran to the end.
func (p *plan) walk(run runFunc, rows deltaFunc) bool {
	ok := true
	if p.compacted || p.from == p.to {
		recs, keys, at := p.gather()
		for off := 0; ok && off < len(recs); off += deltaBlock {
			end := min(off+deltaBlock, len(recs))
			var a []uint32
			if at != nil {
				a = at[off:end]
			}
			ok = p.merge(recs[off:end], keys[off:end], a, run, rows)
		}
	} else {
		// Empty base, every record is delta: stream the table's own index
		// through the same merge.
		n := 0
		block := func(key uint64, rec *memtable.Record) bool {
			p.blockR[n], p.blockK[n] = rec, key
			if n++; n == deltaBlock {
				ok = p.merge(p.blockR[:], p.blockK[:], nil, run, rows)
				n = 0
			}
			return ok
		}
		if run != nil {
			p.tab.Scan(p.from, p.to, block)
		} else {
			p.tab.ScanAny(p.from, p.to, block)
		}
		ok = ok && p.merge(p.blockR[:n], p.blockK[:n], nil, run, rows)
	}
	return ok && (run == nil || liveRuns(p.base, p.pos, p.bn, run))
}

// merge stitches one block of delta records (ascending keys, at most
// deltaBlock of them) over the base rows from p.pos on and yields the
// pieces to walk's callbacks. at holds the records' placement words in
// the base; it is nil only when no base participates. merge only reads
// recs, keys and at, which may be the table's shared Delta view and its
// shared placement.
func (p *plan) merge(recs []*memtable.Record, keys []uint64, at []uint32, run runFunc, rows deltaFunc) bool {
	// Resolve visibility in one tight pass — an independent cache miss
	// per record, nothing else in the way — and drop the chains invisible
	// at the snapshot: they shadow nothing, their base rows stay in runs.
	ts, n := p.s.TS, 0
	for j, rec := range recs {
		if v := rec.Visible(ts); v != nil {
			p.keys[n], p.vers[n] = keys[j], v
			if at != nil {
				p.at[n] = at[j]
			}
			n++
		}
	}
	keys, vers, shadow := p.keys[:n], p.vers[:n], p.shadow[:n]
	bn, pos := p.bn, p.pos
	if pos == bn { // no base rows left: nothing to shadow, nothing to interleave
		for j := range shadow {
			shadow[j] = -1
		}
		return n == 0 || rows(keys, vers, shadow)
	}
	// The placement already says where each key lands, so no key is
	// compared here: a key's lower bound is never below pos (keys ascend,
	// and pos passes an exact hit), and an exact hit is its shadowed row.
	ds := 0 // pending delta batch start
	for j, a := range p.at[:n] {
		lb := min(int(a>>colstore.PlaceShift), bn)
		if run != nil && lb > pos {
			// Base rows sort between the pending batch and this row.
			if ds < j && !rows(keys[ds:j], vers[ds:j], shadow[ds:j]) || !liveRuns(p.base, pos, lb, run) {
				return false
			}
			ds = j
		}
		pos, shadow[j] = lb, -1
		if a&colstore.PlaceExact != 0 {
			if a&colstore.PlaceLive != 0 {
				shadow[j] = lb
			}
			pos++
		}
	}
	p.pos = pos
	return ds == n || rows(keys[ds:], vers[ds:], shadow[ds:])
}

// liveRuns hands base rows [i, end) to run as maximal tombstone-free
// runs, walking the bitmap a word at a time.
func liveRuns(base *colstore.Segment, i, end int, run runFunc) bool {
	for i < end {
		t := end
		if w := base.Del[i>>6] >> (uint(i) & 63); w != 0 {
			t = i + bits.TrailingZeros64(w)
		} else {
			for wi := i>>6 + 1; wi <= (end-1)>>6; wi++ {
				if w := base.Del[wi]; w != 0 {
					t = wi<<6 + bits.TrailingZeros64(w)
					break
				}
			}
		}
		if t > end {
			t = end
		}
		if t > i && !run(i, t) {
			return false
		}
		i = t + 1
	}
	return true
}

// baseRow materialises base row i.
func (p *plan) baseRow(i int) Row {
	cols := make(map[uint32][]byte, len(p.base.Cols))
	p.base.ForEachColumn(i, func(id uint32, val []byte) { cols[id] = val })
	return Row{Key: p.base.Keys[i], CommitTS: p.base.CommitTS[i], Columns: cols}
}

// stitch materialises a delta row: the chain's columns newest-first from
// v, then — unless a tombstone ended the walk — base row i's underneath.
func (p *plan) stitch(key uint64, v *memtable.Version, i int) Row {
	cols := make(map[uint32][]byte, len(v.Columns))
	w := v
	for ; w != nil && !w.Deleted; w = w.Next() {
		for _, c := range w.Columns {
			if _, ok := cols[c.ID]; !ok {
				cols[c.ID] = c.Value
			}
		}
	}
	if w == nil && i >= 0 { // versions older than a delete belong to a prior row
		p.base.ForEachColumn(i, func(id uint32, val []byte) {
			if _, ok := cols[id]; !ok {
				cols[id] = val
			}
		})
	}
	return Row{Key: key, CommitTS: v.CommitTS, Columns: cols}
}

// chainColValue is stitch's chain walk for one column: the first version
// from v down that carries col wins. stop reports that the walk ended
// inside the chain — at the value or at a tombstone; stop=false means it
// ran past the chain end, and the caller fills down from the base row
// (baseValue). Small enough to inline into the per-row callbacks.
func chainColValue(v *memtable.Version, col uint32) (val []byte, stop bool) {
	for w := v; w != nil; w = w.Next() {
		if w.Deleted {
			return nil, true
		}
		for _, c := range w.Columns {
			if c.ID == col {
				return c.Value, true
			}
		}
	}
	return nil, false
}

// baseValue returns column ci of base row i, or nil when either is absent
// (< 0).
func (p *plan) baseValue(i, ci int) []byte {
	if i < 0 || ci < 0 {
		return nil
	}
	val, _ := p.base.Cols[ci].Value(i)
	return val
}

// colIndex returns the base segment's index of column id, or -1.
func (p *plan) colIndex(id uint32) int {
	if p.base == nil {
		return -1
	}
	return p.base.ColIndex(id)
}

// le64 is the WAL's integer convention: values that are not exactly 8
// bytes count as 0.
func le64(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}
