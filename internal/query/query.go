// Package query provides snapshot-consistent read operations over the
// backup Memtable: the OLAP side of the system. A query fixes its snapshot
// timestamp (the freshest primary commit it wants to observe), blocks per
// Algorithm 3 until the replayer has made that snapshot visible for the
// tables it touches, and then reads record versions with commit timestamps
// at or below the snapshot — the visibility rule of paper §V-B.
//
// Every read is planned as base segment + memtable delta (plan.go): the
// frozen base supplies the cold rows through vectorized column arrays and
// footer stats, the delta of version chains is stitched over it with
// newest-wins semantics, and a node without a columnar store — or a table
// not compacted yet — is the same plan with an empty base. The stitched
// view is reference-equal to a plain chain read by construction (the
// freeze rule stores exactly the version a Vacuum at the watermark keeps;
// see DESIGN.md §17 and the FuzzColumnarScan differential test).
package query

import (
	"fmt"
	"sync"

	"aets/internal/colstore"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// Visibility is the part of a replayer a query needs: Algorithm 3.
type Visibility interface {
	WaitVisible(qts int64, tables []wal.TableID)
	GlobalTS() int64
}

// Executor runs snapshot reads against a backup.
type Executor struct {
	mt  *memtable.Memtable
	vis Visibility
	cs  *colstore.Store // nil = row-store node: every table's base is empty

	plans sync.Pool // *plan, with its per-operation buffers
}

// NewExecutor returns an Executor that plans reads over cs's columnar
// segments stitched with mt's delta. cs is nil on a row-store node.
func NewExecutor(mt *memtable.Memtable, vis Visibility, cs *colstore.Store) *Executor {
	return &Executor{mt: mt, vis: vis, cs: cs}
}

// Row is one materialised row of a snapshot scan.
type Row struct {
	Key      uint64
	CommitTS int64 // commit timestamp of the newest visible version
	Columns  map[uint32][]byte
}

// Snapshot is a read view at a fixed timestamp, already admitted by
// Algorithm 3 for its table set.
//
// On a columnar executor, snapshot timestamps below the freeze watermark
// are outside the read contract, exactly as they are below the Vacuum
// watermark on a row-wise node: the versions are gone either way.
type Snapshot struct {
	ex     *Executor
	TS     int64
	tables map[wal.TableID]bool
	err    error // non-nil: a Failed snapshot, every read returns it
}

// Failed returns a snapshot that serves nothing: every read returns err.
// It stands in for a read view that could not be opened, so callers that
// must return a *Snapshot report the failure on first use.
func Failed(err error) *Snapshot { return &Snapshot{err: err} }

// Begin blocks until the snapshot at qts is visible for the given tables
// (Algorithm 3) and returns the read view. qts ≤ 0 means "freshest
// currently visible" (the replayer's global timestamp), which never
// blocks.
func (e *Executor) Begin(qts int64, tables ...wal.TableID) *Snapshot {
	if qts <= 0 {
		qts = e.vis.GlobalTS()
	} else {
		e.vis.WaitVisible(qts, tables)
	}
	s := &Snapshot{ex: e, TS: qts, tables: make(map[wal.TableID]bool, len(tables))}
	for _, t := range tables {
		s.tables[t] = true
	}
	return s
}

func (s *Snapshot) check(table wal.TableID) error {
	if s.err != nil {
		return s.err
	}
	if !s.tables[table] {
		return fmt.Errorf("query: table %d not declared when the snapshot began (visibility was not established for it)", table)
	}
	return nil
}

// Get returns the row with the given key as of the snapshot, or ok=false
// if it does not exist or is deleted at the snapshot: a Scan of the
// one-key range, which the planner resolves through the index.
func (s *Snapshot) Get(table wal.TableID, key uint64) (row Row, ok bool, err error) {
	err = s.Scan(table, key, key, func(r Row) bool {
		row, ok = r, true
		return false
	})
	return row, ok, err
}

// Scan visits all visible rows with from ≤ key ≤ to in key order. fn
// returning false stops the scan early.
func (s *Snapshot) Scan(table wal.TableID, from, to uint64, fn func(Row) bool) error {
	if err := s.check(table); err != nil {
		return err
	}
	p := s.begin(table, from, to)
	defer p.end()
	p.walk(func(i, e int) bool {
		for ; i < e; i++ {
			if !fn(p.baseRow(i)) {
				return false
			}
		}
		return true
	}, func(keys []uint64, vers []*memtable.Version, shadow []int) bool {
		for j, v := range vers {
			if !v.Deleted && !fn(p.stitch(keys[j], v, shadow[j])) {
				return false
			}
		}
		return true
	})
	return nil
}

// ScanCols visits rows with from ≤ key ≤ to in key order without
// materialising per-row column maps: vals[i] is the value of cols[i] for
// the visited row (nil when the row does not carry it), resolved with the
// same newest-wins semantics as Get. The vals slice and its backing
// buffers are reused across calls — callers must copy anything they keep.
// Base rows are served straight from the column arrays, delta rows by
// per-column chain resolution; 0 allocs/op steady state either way.
func (s *Snapshot) ScanCols(table wal.TableID, from, to uint64, cols []uint32, fn func(key uint64, ts int64, vals [][]byte) bool) error {
	if err := s.check(table); err != nil {
		return err
	}
	p := s.begin(table, from, to)
	defer p.end()
	if cap(p.vals) < len(cols) {
		p.vals = make([][]byte, len(cols))
		p.colIdx = make([]int, len(cols))
	}
	vals, colIdx := p.vals[:len(cols)], p.colIdx[:len(cols)]
	for c, id := range cols {
		colIdx[c] = p.colIndex(id)
	}
	base := p.base
	p.walk(func(i, e int) bool {
		for ; i < e; i++ {
			for c, ci := range colIdx {
				vals[c] = p.baseValue(i, ci)
			}
			if !fn(base.Keys[i], base.CommitTS[i], vals) {
				return false
			}
		}
		return true
	}, func(keys []uint64, vers []*memtable.Version, shadow []int) bool {
		for j, v := range vers {
			if v.Deleted {
				continue
			}
			for c, id := range cols {
				val, stop := chainColValue(v, id)
				if !stop {
					val = p.baseValue(shadow[j], colIdx[c])
				}
				vals[c] = val
			}
			if !fn(keys[j], v.CommitTS, vals) {
				return false
			}
		}
		return true
	})
	return nil
}

// ScanKeys streams the visible keys and their commit timestamps of
// [from, to] in ascending key order as column vectors. This is the
// vectorized scan: base runs arrive as zero-copy windows directly over
// the segment's key/timestamp vectors with no per-row version resolution
// (segments are immutable, so a window stays coherent even if a
// compaction publishes a successor mid-scan), and delta rows arrive in
// buffered batches. Batch sizes vary; the slices may be reused between
// callbacks — copy out anything kept past the return.
func (s *Snapshot) ScanKeys(table wal.TableID, from, to uint64, fn func(keys []uint64, ts []int64) bool) error {
	if err := s.check(table); err != nil {
		return err
	}
	p := s.begin(table, from, to)
	defer p.end()
	if p.batchK == nil {
		p.batchK = make([]uint64, scanKeysBatch)
		p.batchT = make([]int64, scanKeysBatch)
	}
	keys, tss, kn := p.batchK, p.batchT, 0
	base := p.base
	if p.walk(func(i, e int) bool {
		if kn > 0 { // delta rows buffered ahead of this run go first
			n := kn
			kn = 0
			if !fn(keys[:n], tss[:n]) {
				return false
			}
		}
		return fn(base.Keys[i:e:e], base.CommitTS[i:e:e])
	}, func(dk []uint64, vers []*memtable.Version, _ []int) bool {
		for j, v := range vers {
			if v.Deleted {
				continue
			}
			if kn == len(keys) {
				kn = 0
				if !fn(keys, tss) {
					return false
				}
			}
			keys[kn], tss[kn] = dk[j], v.CommitTS
			kn++
		}
		return true
	}) && kn > 0 {
		fn(keys[:kn], tss[:kn])
	}
	return nil
}

// Count returns the number of rows visible in the table at the snapshot:
// the base segment's live-row stat plus an O(delta) adjustment.
func (s *Snapshot) Count(table wal.TableID) (int, error) {
	if err := s.check(table); err != nil {
		return 0, err
	}
	p := s.begin(table, 0, ^uint64(0))
	defer p.end()
	n := 0
	if p.base != nil {
		n = p.base.Live
	}
	p.walk(nil, func(_ []uint64, vers []*memtable.Version, shadow []int) bool {
		d := 0 // n lives in the closure's frame; fold the block in a register
		for j, v := range vers {
			if !v.Deleted {
				d++
			}
			if shadow[j] >= 0 {
				d-- // the chain shadows a counted base row
			}
		}
		n += d
		return true
	})
	return n, nil
}

// MaxCommitTS returns the newest commit timestamp visible in the table at
// the snapshot — a freshness probe: how recent is the data this query can
// actually see. The base contributes a vectorized max over its commit-ts
// vector that skips delta-shadowed rows.
func (s *Snapshot) MaxCommitTS(table wal.TableID) (int64, error) {
	if err := s.check(table); err != nil {
		return 0, err
	}
	p := s.begin(table, 0, ^uint64(0))
	defer p.end()
	var max int64
	excl := p.excl[:0]
	p.walk(nil, func(_ []uint64, vers []*memtable.Version, shadow []int) bool {
		m := max
		for j, v := range vers {
			if !v.Deleted && v.CommitTS > m {
				m = v.CommitTS
			}
			if i := shadow[j]; i >= 0 {
				// A visible chain shadows its base row whatever its own
				// fate: the base row's ts must not count. The delta of a
				// compacted table arrives key-sorted, so excl comes out
				// ascending as MaxLiveTSExcluding needs.
				excl = append(excl, i)
			}
		}
		max = m
		return true
	})
	p.excl = excl
	if p.base != nil {
		max = p.base.MaxLiveTSExcluding(excl, max)
	}
	return max, nil
}

// SumInt64 sums column col over all rows visible at the snapshot,
// interpreting each value as a little-endian 64-bit integer (the WAL's
// integer convention). A row contributes its newest visible value of col
// under ReadRow semantics — the first version at or below the snapshot
// that carries the column, never reaching past a delete. Rows without the
// column, or whose value is not exactly 8 bytes, contribute nothing. The
// base contributes its precomputed column sum; the delta adjusts it in
// O(delta).
func (s *Snapshot) SumInt64(table wal.TableID, col uint32) (int64, error) {
	if err := s.check(table); err != nil {
		return 0, err
	}
	p := s.begin(table, 0, ^uint64(0))
	defer p.end()
	var sum int64
	ci := p.colIndex(col)
	if p.base != nil {
		sum = p.base.Sum(col)
	}
	p.walk(nil, func(_ []uint64, vers []*memtable.Version, shadow []int) bool {
		var d int64
		for j, v := range vers {
			// The chain shadows base row i (if any): back out its
			// precomputed contribution, then add the chain's.
			i := shadow[j]
			if i >= 0 {
				d -= le64(p.baseValue(i, ci))
			}
			if !v.Deleted {
				val, stop := chainColValue(v, col)
				if !stop {
					val = p.baseValue(i, ci)
				}
				d += le64(val)
			}
		}
		sum += d
		return true
	})
	return sum, nil
}
