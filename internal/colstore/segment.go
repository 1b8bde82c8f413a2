// Package colstore is the columnar read-optimized layer behind the
// memtable: epoch-aligned compaction freezes records whose entire version
// chain is at or below the vacuum watermark into immutable, column-major
// segments, and the query planner reads segments + the memtable's hot
// delta stitched together at the snapshot timestamp (the delta-merge
// pattern of native HTAP engines; DESIGN.md §17).
//
// The freeze rule makes segment rows exactly the image a Vacuum at the
// watermark would have kept: the chain-head version's fields, verbatim —
// no column merge down the chain. That is what makes columnar reads
// provably equal to the row-wise path on a twin that vacuums at every
// freeze point, which the differential fuzz in internal/query exercises.
package colstore

import (
	"math/bits"
	"sync/atomic"

	"aets/internal/wal"
)

// Column encodings. The builder picks per column: fixed8 when every value
// is exactly 8 bytes (the WAL's integer convention — sums vectorize over
// the raw blob), dict when at least half the values repeat, plain
// otherwise.
const (
	EncPlain  = uint8(0)
	EncFixed8 = uint8(1)
	EncDict   = uint8(2)
)

// Column is one column's values across all rows of a segment, with a
// presence bitmap (not every row carries every column — WAL entries are
// after-images) and a per-word rank index for O(1) random access.
type Column struct {
	ID  uint32
	Enc uint8

	// Present bit i set ⇔ row i carries this column. Rank[w] is the
	// number of present rows before row 64·w, so the value index of a
	// present row is Rank[i>>6] + popcount(Present[i>>6] masked below i).
	Present  []uint64
	Rank     []uint32
	PresentN int

	// EncFixed8: Blob holds 8 bytes per present row, rank-indexed.
	// EncPlain: value r is Blob[Off[r]:Off[r+1]] (len(Off) == PresentN+1).
	// EncDict:  Idx[r] selects Dict[DictOff[Idx[r]]:DictOff[Idx[r]+1]].
	Blob    []byte
	Off     []uint32
	Dict    []byte
	DictOff []uint32
	Idx     []uint32
}

// Value returns the column's value for the given row, or ok=false when the
// row does not carry it. The returned slice aliases the segment's blob and
// must not be mutated. O(1).
func (c *Column) Value(row int) ([]byte, bool) {
	w := c.Present[row>>6]
	bit := uint(row) & 63
	if w>>bit&1 == 0 {
		return nil, false
	}
	r := int(c.Rank[row>>6]) + bits.OnesCount64(w&(1<<bit-1))
	switch c.Enc {
	case EncFixed8:
		return c.Blob[8*r : 8*r+8 : 8*r+8], true
	case EncDict:
		d := c.Idx[r]
		return c.Dict[c.DictOff[d]:c.DictOff[d+1]:c.DictOff[d+1]], true
	default:
		return c.Blob[c.Off[r]:c.Off[r+1]:c.Off[r+1]], true
	}
}

// Segment is an immutable column-major image of one table's frozen rows,
// sorted by key. Tombstones are kept (Del bit set) so a frozen delete
// keeps shadowing earlier generations of the same key, exactly as the
// post-Vacuum row store would.
type Segment struct {
	TableID wal.TableID

	Keys     []uint64 // strictly ascending
	CommitTS []int64
	TxnID    []uint64
	Del      []uint64 // tombstone bitmap, 1 bit per row
	Cols     []Column // ascending by ID

	// Footer stats, for segment pruning and aggregate shortcuts. All row
	// commit timestamps are ≤ the freeze watermark, so a query at qts ≥
	// watermark (the GC/freeze contract) sees every row; MinTS/MaxTS
	// bound the ts-prune, MaxLiveTS caps MaxCommitTS.
	MinKey, MaxKey uint64
	MinTS, MaxTS   int64
	MaxLiveTS      int64
	Live           int // rows with the Del bit clear

	sums map[uint32]int64 // per-column Σ of 8-byte LE values over live rows

	place atomic.Pointer[placement] // the latest delta view placed here
}

// Len returns the number of rows (tombstones included).
func (s *Segment) Len() int { return len(s.Keys) }

// Deleted reports whether row i is a tombstone.
func (s *Segment) Deleted(i int) bool {
	return s.Del[i>>6]>>(uint(i)&63)&1 == 1
}

// Sum returns the precomputed sum of column col interpreted as little-
// endian int64 over all live rows (values that are not exactly 8 bytes
// contribute 0, matching query.SumInt64). Absent columns sum to 0.
func (s *Segment) Sum(col uint32) int64 { return s.sums[col] }

// MaxLiveTSExcluding returns the maximum of seed and the commit timestamps
// of all live rows except those whose indexes appear in excl (ascending).
// The delta-shadow case of MaxCommitTS: excluded rows are hidden by a
// visible chain, so their timestamps must not count. Runs word-at-a-time
// over the tombstone bitmap; when seed already dominates MaxLiveTS, or
// nothing is excluded, the footer stat answers without touching a row.
func (s *Segment) MaxLiveTSExcluding(excl []int, seed int64) int64 {
	if seed >= s.MaxLiveTS {
		return seed
	}
	if len(excl) == 0 {
		return s.MaxLiveTS
	}
	max := seed
	e := 0
	for i, n := 0, s.Len(); i < n; i++ {
		if uint(i)&63 == 0 && s.Del[i>>6] == 0 && (e >= len(excl) || excl[e] >= i+64) {
			// Whole word live and unexcluded: take the block in one sweep.
			end := i + 64
			if end > n {
				end = n
			}
			for ; i < end; i++ {
				if s.CommitTS[i] > max {
					max = s.CommitTS[i]
				}
			}
			i--
			continue
		}
		if e < len(excl) && excl[e] == i {
			e++
			continue
		}
		if !s.Deleted(i) && s.CommitTS[i] > max {
			max = s.CommitTS[i]
		}
	}
	return max
}

// Find locates key by binary search, returning its row index and whether
// it is present.
func (s *Segment) Find(key uint64) (int, bool) {
	lo, hi := 0, len(s.Keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.Keys) && s.Keys[lo] == key
}

// LowerBound returns the index of the first row with Keys[i] ≥ key.
func (s *Segment) LowerBound(key uint64) int {
	i, _ := s.Find(key)
	return i
}

// LowerBoundFrom returns the first row index ≥ lo whose key is ≥ key,
// galloping forward from lo before binary-searching the bracketed span.
// A monotone position walk (sorted probe keys, lo advanced past each hit)
// pays O(log gap) per probe instead of O(log n).
func (s *Segment) LowerBoundFrom(lo int, key uint64) int {
	n := len(s.Keys)
	if lo >= n || s.Keys[lo] >= key {
		return lo
	}
	step, hi := 1, lo+1
	for hi < n && s.Keys[hi] < key {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	// Invariant: Keys[lo] < key, and hi == n or Keys[hi] ≥ key.
	l, h := lo+1, hi
	for l < h {
		m := int(uint(l+h) >> 1)
		if s.Keys[m] < key {
			l = m + 1
		} else {
			h = m
		}
	}
	return l
}

// ColIndex returns the index into Cols of the column with the given ID, or
// -1. Cols is small and sorted; binary search keeps Get cheap.
func (s *Segment) ColIndex(id uint32) int {
	lo, hi := 0, len(s.Cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Cols[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Cols) && s.Cols[lo].ID == id {
		return lo
	}
	return -1
}

// ForEachColumn visits row i's columns in ascending column-ID order —
// the canonical order frozen rows are digested and checkpointed in.
func (s *Segment) ForEachColumn(i int, fn func(id uint32, val []byte)) {
	for c := range s.Cols {
		if v, ok := s.Cols[c].Value(i); ok {
			fn(s.Cols[c].ID, v)
		}
	}
}

// AppendRowColumns appends row i's columns (ascending by ID) to buf. The
// values alias the segment; checkpoint writers copy them into the stream.
func (s *Segment) AppendRowColumns(i int, buf []wal.Column) []wal.Column {
	s.ForEachColumn(i, func(id uint32, val []byte) {
		buf = append(buf, wal.Column{ID: id, Value: val})
	})
	return buf
}

// ---------------------------------------------------------------------------
// Builder.

// Builder accumulates frozen row images (in strictly ascending key order)
// and materialises them into a Segment. All value bytes are copied into
// segment-owned blobs — a segment never aliases arena-backed chain memory,
// so the arenas the frozen versions are released to can recycle freely.
type Builder struct {
	tableID wal.TableID
	keys    []uint64
	ts      []int64
	txn     []uint64
	del     []bool
	cols    map[uint32][]cell
}

type cell struct {
	row int
	val []byte
}

// NewBuilder returns a builder for one table's segment. capHint sizes the
// row vectors (0 is fine).
func NewBuilder(id wal.TableID, capHint int) *Builder {
	return &Builder{
		tableID: id,
		keys:    make([]uint64, 0, capHint),
		ts:      make([]int64, 0, capHint),
		txn:     make([]uint64, 0, capHint),
		del:     make([]bool, 0, capHint),
		cols:    make(map[uint32][]cell),
	}
}

// Add appends one row image. Keys must arrive strictly ascending; duplicate
// column IDs within one row keep the first occurrence (ReadRow semantics).
func (b *Builder) Add(key uint64, ts int64, txn uint64, deleted bool, cols []wal.Column) {
	if n := len(b.keys); n > 0 && b.keys[n-1] >= key {
		panic("colstore: Builder.Add keys not strictly ascending")
	}
	row := len(b.keys)
	b.keys = append(b.keys, key)
	b.ts = append(b.ts, ts)
	b.txn = append(b.txn, txn)
	b.del = append(b.del, deleted)
	for _, c := range cols {
		cells := b.cols[c.ID]
		if n := len(cells); n > 0 && cells[n-1].row == row {
			continue // duplicate column ID within the row: first wins
		}
		// No copy here; the deep copy into segment-owned blobs happens in
		// Build, which runs before the frozen chains are released.
		b.cols[c.ID] = append(cells, cell{row: row, val: c.Value})
	}
}

// Build materialises the segment: bitmaps, per-column encodings, rank
// indexes and footer stats.
func (b *Builder) Build() *Segment {
	n := len(b.keys)
	seg := &Segment{
		TableID:  b.tableID,
		Keys:     b.keys,
		CommitTS: b.ts,
		TxnID:    b.txn,
		Del:      make([]uint64, (n+63)/64),
		sums:     make(map[uint32]int64),
	}
	for i, d := range b.del {
		if d {
			seg.Del[i>>6] |= 1 << (uint(i) & 63)
		}
	}

	ids := make([]uint32, 0, len(b.cols))
	for id := range b.cols {
		ids = append(ids, id)
	}
	sortU32(ids)
	seg.Cols = make([]Column, 0, len(ids))
	for _, id := range ids {
		seg.Cols = append(seg.Cols, buildColumn(id, b.cols[id], n))
	}

	seg.finalize()
	return seg
}

// buildColumn copies the cells into the chosen encoding.
func buildColumn(id uint32, cells []cell, rows int) Column {
	c := Column{
		ID:       id,
		Present:  make([]uint64, (rows+63)/64),
		PresentN: len(cells),
	}
	allFixed8 := true
	total := 0
	for _, cl := range cells {
		c.Present[cl.row>>6] |= 1 << (uint(cl.row) & 63)
		if len(cl.val) != 8 {
			allFixed8 = false
		}
		total += len(cl.val)
	}
	c.Rank = buildRank(c.Present)

	switch {
	case allFixed8 && len(cells) > 0:
		c.Enc = EncFixed8
		c.Blob = make([]byte, 0, 8*len(cells))
		for _, cl := range cells {
			c.Blob = append(c.Blob, cl.val...)
		}
	default:
		// Count distinct values; dictionary-encode when at least half
		// the occurrences repeat.
		uniq := make(map[string]uint32, len(cells))
		for _, cl := range cells {
			if _, ok := uniq[string(cl.val)]; !ok {
				uniq[string(cl.val)] = uint32(len(uniq))
			}
		}
		if len(cells) >= 2 && len(uniq)*2 <= len(cells) {
			c.Enc = EncDict
			c.Dict = make([]byte, 0, total)
			c.DictOff = make([]uint32, 1, len(uniq)+1)
			c.Idx = make([]uint32, 0, len(cells))
			// Assign dictionary slots in first-appearance order so the
			// encoding is deterministic.
			seen := make(map[string]uint32, len(uniq))
			for _, cl := range cells {
				slot, ok := seen[string(cl.val)]
				if !ok {
					slot = uint32(len(seen))
					seen[string(cl.val)] = slot
					c.Dict = append(c.Dict, cl.val...)
					c.DictOff = append(c.DictOff, uint32(len(c.Dict)))
				}
				c.Idx = append(c.Idx, slot)
			}
		} else {
			c.Enc = EncPlain
			c.Blob = make([]byte, 0, total)
			c.Off = make([]uint32, 1, len(cells)+1)
			for _, cl := range cells {
				c.Blob = append(c.Blob, cl.val...)
				c.Off = append(c.Off, uint32(len(c.Blob)))
			}
		}
	}
	return c
}

// buildRank computes the per-word present-row rank prefix.
func buildRank(present []uint64) []uint32 {
	rank := make([]uint32, len(present))
	var acc uint32
	for w := range present {
		rank[w] = acc
		acc += uint32(bits.OnesCount64(present[w]))
	}
	return rank
}

// finalize recomputes the footer stats from the column vectors. Build and
// Decode share it, so a decoded segment's stats can never disagree with
// its data.
func (s *Segment) finalize() {
	n := len(s.Keys)
	s.Live = 0
	s.MinTS, s.MaxTS, s.MaxLiveTS = 0, 0, 0
	if s.sums == nil {
		s.sums = make(map[uint32]int64)
	}
	for k := range s.sums {
		delete(s.sums, k)
	}
	if n == 0 {
		s.MinKey, s.MaxKey = 0, 0
		return
	}
	s.MinKey, s.MaxKey = s.Keys[0], s.Keys[n-1]
	s.MinTS, s.MaxTS = s.CommitTS[0], s.CommitTS[0]
	for i, ts := range s.CommitTS {
		if ts < s.MinTS {
			s.MinTS = ts
		}
		if ts > s.MaxTS {
			s.MaxTS = ts
		}
		if !s.Deleted(i) {
			s.Live++
			if ts > s.MaxLiveTS {
				s.MaxLiveTS = ts
			}
		}
	}
	for ci := range s.Cols {
		c := &s.Cols[ci]
		if c.Enc != EncFixed8 {
			// Non-fixed8 columns can still hold 8-byte values; walk them.
			var sum int64
			row := 0
			for r := 0; r < c.PresentN; r++ {
				row = c.nextPresent(row)
				if !s.Deleted(row) {
					if v, ok := c.Value(row); ok && len(v) == 8 {
						sum += int64(leU64(v))
					}
				}
				row++
			}
			if sum != 0 {
				s.sums[c.ID] = sum
			}
			continue
		}
		var sum int64
		row := 0
		for r := 0; r < c.PresentN; r++ {
			row = c.nextPresent(row)
			if !s.Deleted(row) {
				sum += int64(leU64(c.Blob[8*r : 8*r+8]))
			}
			row++
		}
		if sum != 0 {
			s.sums[c.ID] = sum
		}
	}
}

// nextPresent returns the first present row ≥ from.
func (c *Column) nextPresent(from int) int {
	w := from >> 6
	if w >= len(c.Present) {
		return from
	}
	cur := c.Present[w] &^ (1<<(uint(from)&63) - 1)
	for cur == 0 {
		w++
		if w >= len(c.Present) {
			return w << 6
		}
		cur = c.Present[w]
	}
	return w<<6 + bits.TrailingZeros64(cur)
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func sortU32(x []uint32) {
	// Insertion sort: the column-ID set is schema-sized.
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j-1] > x[j]; j-- {
			x[j-1], x[j] = x[j], x[j-1]
		}
	}
}
