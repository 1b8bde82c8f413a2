package query

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"aets/internal/colstore"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// fakeVis is a Visibility stub: everything at or below its clock is
// visible immediately.
type fakeVis struct{ ts atomic.Int64 }

func (f *fakeVis) WaitVisible(int64, []wal.TableID) {}
func (f *fakeVis) GlobalTS() int64                  { return f.ts.Load() }

// fuzzKeys is the key pool the differential fuzz draws from: clustered
// runs, gaps, and both domain sentinels.
var fuzzKeys = []uint64{0, 1, 2, 3, 10, 11, 12, 100, 101, 5000, 5001,
	1 << 40, ^uint64(0) - 1, ^uint64(0)}

func colI64(v int64) wal.Column {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return wal.Column{ID: 1, Value: b}
}

// twinPair is the differential harness: a columnar node and a plain
// memtable twin fed identical writes, with the twin vacuuming at every
// freeze watermark (the freeze rule stores exactly the image such a vacuum
// keeps, so every legal query must read the same rows from both). The
// twin is read two ways: by refRows, the planner-free oracle, and by the
// two degenerate executors, which run the same planner as the columnar
// one and so cannot serve as its reference.
type twinPair struct {
	vis  *fakeVis
	mtC  *memtable.Memtable
	mtR  *memtable.Memtable
	comp *colstore.Compactor
	exs  []namedExecutor
}

type namedExecutor struct {
	name string
	ex   *Executor
}

func newTwinPair() *twinPair {
	p := &twinPair{vis: &fakeVis{}, mtC: memtable.New(), mtR: memtable.New()}
	cs := colstore.NewStore()
	p.comp = colstore.NewCompactor(p.mtC, cs)
	p.exs = []namedExecutor{
		{"columnar", NewExecutor(p.mtC, p.vis, cs)},
		{"row-store", NewExecutor(p.mtR, p.vis, nil)},
		{"never-compacted", NewExecutor(p.mtR, p.vis, colstore.NewStore())},
	}
	return p
}

func (p *twinPair) apply(key uint64, ts int64, txn uint64, del bool, cols []wal.Column) {
	for _, mt := range []*memtable.Memtable{p.mtC, p.mtR} {
		mt.Table(1).GetOrCreate(key).Append(&memtable.Version{
			TxnID: txn, CommitTS: ts, Deleted: del, Columns: cols,
		})
	}
	p.vis.ts.Store(ts)
}

// freeze runs one compaction epoch at w on the columnar side and the
// equivalent vacuum on both sides (the production wiring drives Vacuum
// and Compact off the same watermark clock).
func (p *twinPair) freeze(w int64) {
	p.mtR.Vacuum(w)
	p.mtC.Vacuum(w)
	p.comp.RunOnce(w)
}

type gotRow struct {
	key  uint64
	ts   int64
	cols map[uint32]string
}

// refRows is the independent oracle: the rows of table 1 visible at qts
// with from ≤ key ≤ to, read record by record with Record.Visible and
// Record.ReadRow over the unordered shard walk and sorted here. It shares
// nothing with the planner — no colstore, no merge driver, no stitch.
func refRows(mt *memtable.Memtable, qts int64, from, to uint64) []gotRow {
	var out []gotRow
	mt.Table(1).ScanAny(0, ^uint64(0), func(key uint64, rec *memtable.Record) bool {
		v := rec.Visible(qts)
		if key < from || key > to || v == nil || v.Deleted {
			return true
		}
		g := gotRow{key: key, ts: v.CommitTS, cols: map[uint32]string{}}
		for id, val := range rec.ReadRow(qts) {
			g.cols[id] = string(val)
		}
		out = append(out, g)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func collectScan(t *testing.T, s *Snapshot, from, to uint64) []gotRow {
	t.Helper()
	var out []gotRow
	if err := s.Scan(1, from, to, func(r Row) bool {
		g := gotRow{key: r.Key, ts: r.CommitTS, cols: map[uint32]string{}}
		for id, v := range r.Columns {
			g.cols[id] = string(v)
		}
		out = append(out, g)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func rowsEqual(a, b []gotRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || a[i].ts != b[i].ts || len(a[i].cols) != len(b[i].cols) {
			return false
		}
		for id, v := range a[i].cols {
			if w, ok := b[i].cols[id]; !ok || w != v {
				return false
			}
		}
	}
	return true
}

// compare checks every public read operation of every executor against
// the oracle at snapshot qts. extra is one more scan range on top of the
// fixed ones (the fuzzer's).
func (p *twinPair) compare(t *testing.T, qts int64, extra [2]uint64) {
	t.Helper()
	for _, ne := range p.exs {
		compareExecutor(t, ne.name, ne.ex.Begin(qts, 1), p.mtR, extra)
	}
}

func compareExecutor(t *testing.T, name string, s *Snapshot, mtRef *memtable.Memtable, extra [2]uint64) {
	t.Helper()
	qts := s.TS
	ref := refRows(mtRef, qts, 0, ^uint64(0))

	// Aggregates, derived from the oracle's rows under SumInt64's stated
	// convention (8-byte little-endian values count, anything else is 0).
	if n, err := s.Count(1); err != nil || n != len(ref) {
		t.Fatalf("%s qts %d: Count = %d (err %v), want %d", name, qts, n, err, len(ref))
	}
	cols := []uint32{1, 2, 9}
	for _, col := range cols {
		var want int64
		for _, r := range ref {
			if v, ok := r.cols[col]; ok && len(v) == 8 {
				want += int64(binary.LittleEndian.Uint64([]byte(v)))
			}
		}
		if got, _ := s.SumInt64(1, col); got != want {
			t.Fatalf("%s qts %d: SumInt64(%d) = %d, want %d", name, qts, col, got, want)
		}
	}
	var wantMax int64
	for _, r := range ref {
		if r.ts > wantMax {
			wantMax = r.ts
		}
	}
	if got, _ := s.MaxCommitTS(1); got != wantMax {
		t.Fatalf("%s qts %d: MaxCommitTS = %d, want %d", name, qts, got, wantMax)
	}

	// Scan and ScanKeys over the full range and sub-ranges: single-key and
	// sentinel-bounded windows (so the zero-copy runs hit partial
	// windows), an inverted range, and the caller's.
	ranges := [][2]uint64{{0, ^uint64(0)}, {1, 100}, {11, 11}, {5001, ^uint64(0)}, {0, 0},
		{^uint64(0), ^uint64(0)}, {200, 4000}, {100, 1}, extra}
	for _, r := range ranges {
		want := refRows(mtRef, qts, r[0], r[1])
		if got := collectScan(t, s, r[0], r[1]); !rowsEqual(got, want) {
			t.Fatalf("%s qts %d: Scan[%d,%d] mismatch\ngot:  %+v\nwant: %+v", name, qts, r[0], r[1], got, want)
		}
		var ks []uint64
		var ts []int64
		if err := s.ScanKeys(1, r[0], r[1], func(keys []uint64, tss []int64) bool {
			ks = append(ks, keys...)
			ts = append(ts, tss...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(ks) != len(want) {
			t.Fatalf("%s qts %d: ScanKeys[%d,%d] %d rows, want %d", name, qts, r[0], r[1], len(ks), len(want))
		}
		for i := range want {
			if ks[i] != want[i].key || ts[i] != want[i].ts {
				t.Fatalf("%s qts %d: ScanKeys[%d,%d] row %d = (%d,%d), want (%d,%d)",
					name, qts, r[0], r[1], i, ks[i], ts[i], want[i].key, want[i].ts)
			}
		}
	}

	for _, k := range fuzzKeys {
		var want []gotRow
		for _, r := range ref {
			if r.key == k {
				want = []gotRow{r}
			}
		}
		row, ok, err := s.Get(1, k)
		var got []gotRow
		if ok {
			g := gotRow{key: row.Key, ts: row.CommitTS, cols: map[uint32]string{}}
			for id, v := range row.Columns {
				g.cols[id] = string(v)
			}
			got = []gotRow{g}
		}
		if err != nil || !rowsEqual(got, want) {
			t.Fatalf("%s qts %d: Get(%d) = %+v (err %v), want %+v", name, qts, k, got, err, want)
		}
	}

	i := 0
	if err := s.ScanCols(1, 0, ^uint64(0), cols, func(key uint64, ts int64, vals [][]byte) bool {
		if i >= len(ref) || key != ref[i].key || ts != ref[i].ts {
			t.Fatalf("%s qts %d: ScanCols row %d = (%d,%d), oracle has %d rows", name, qts, i, key, ts, len(ref))
		}
		for j, col := range cols {
			if want := ref[i].cols[col]; string(vals[j]) != want {
				t.Fatalf("%s qts %d: ScanCols key %d col %d: %q, want %q", name, qts, key, col, vals[j], want)
			}
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(ref) {
		t.Fatalf("%s qts %d: ScanCols visited %d rows, want %d", name, qts, i, len(ref))
	}
}

// FuzzColumnarScan is the reference-equality proof: a fuzz-driven write/
// freeze/query schedule runs against a columnar node and a plain twin
// vacuumed at every freeze watermark, and every read operation of the
// columnar and both degenerate executors must agree with the oracle at
// every legal snapshot (qts at or above the newest freeze watermark).
func FuzzColumnarScan(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x17, 0xf0, 0x33, 0x08, 0xff, 0x2a, 0x90, 0x11}, uint64(0), ^uint64(0))
	f.Add([]byte{0xf0, 0xf0, 0xf0, 0x00, 0x0d, 0x0d, 0x80, 0x81, 0x82, 0x83, 0xf1, 0x01}, uint64(2), uint64(12))
	f.Add(bytes.Repeat([]byte{0x07, 0xe0, 0x55}, 20), uint64(10), uint64(5001))
	f.Add([]byte{}, uint64(0), uint64(0))
	// No freeze point before the final one: every mid-schedule compare
	// (op 7) reads a columnar node that has never compacted.
	f.Add([]byte{0x00, 0x01, 0x01, 0x02, 0x02, 0x05, 0x04, 0x01, 0x07, 0xff, 0x03, 0x0a, 0x07, 0x14}, uint64(1), uint64(101))
	// An inverted range over a frozen base with a hot delta on top.
	f.Add([]byte{0x01, 0x03, 0x02, 0x04, 0x05, 0x00, 0x01, 0x03, 0x04, 0x04, 0x07, 0x10}, uint64(5000), uint64(3))
	// The tombstone rules, one seed each: a chain re-inserted over a
	// frozen tombstone (the base row must not be backed out of Count), and
	// a partial update over a hot delete over a live frozen row (the
	// delete must block fill-down from the base).
	f.Add([]byte{0x01, 0x04, 0x01, 0x03, 0x04, 0x03, 0x05, 0x00, 0x01, 0x03, 0x07, 0xff}, uint64(3), uint64(10))
	f.Add([]byte{0x01, 0x04, 0x01, 0x03, 0x05, 0x00, 0x04, 0x03, 0x01, 0x2d, 0x07, 0xff}, uint64(3), uint64(10))
	// The delta's placement in the base, one seed each. Reads at several
	// ranges share one view and base: the full-range aggregates place the
	// view (keys 0 1 2 10 11 100 over a base of 0 2 10 12 100 5000, with a
	// hot delete and a partial update among them), and the caller's range
	// [10, 5000] starts inside it. Then a freeze replaces the base between
	// two reads at the same qts: the second read, at the old watermark,
	// places a view of newer, invisible chains in the new base.
	f.Add([]byte{0x01, 0x00, 0x01, 0x02, 0x01, 0x04, 0x01, 0x06, 0x01, 0x07, 0x01, 0x09, 0x05, 0x00,
		0x02, 0x0e, 0x02, 0x01, 0x03, 0x04, 0x02, 0x05, 0x02, 0x07, 0x04, 0x02, 0x07, 0xff}, uint64(10), uint64(5000))
	f.Add([]byte{0x01, 0x00, 0x01, 0x04, 0x01, 0x07, 0x01, 0x09, 0x05, 0x00, 0x02, 0x02, 0x02, 0x04, 0x04, 0x07,
		0x07, 0xff, 0x06, 0x00, 0x02, 0x04, 0x02, 0x01, 0x07, 0x00}, uint64(2), uint64(100))

	strVals := []string{"x", "yy", "zzz", ""}
	f.Fuzz(func(t *testing.T, data []byte, from, to uint64) {
		p := newTwinPair()
		extra := [2]uint64{from, to}
		ts := int64(0)
		txn := uint64(0)
		var wLast int64
		for i := 0; i+1 < len(data) && i < 240; i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 8 {
			case 0, 1, 2, 3: // update
				ts += 10
				txn++
				key := fuzzKeys[int(arg)%len(fuzzKeys)]
				cols := []wal.Column{colI64(int64(arg) * 7)}
				if op%3 != 0 {
					cols = append(cols, wal.Column{ID: 2, Value: []byte(strVals[int(op)%len(strVals)])})
				}
				if arg%5 == 0 {
					cols = cols[1:] // partial update without the int column
				}
				p.apply(key, ts, txn, false, cols)
			case 4: // delete
				ts += 10
				txn++
				p.apply(fuzzKeys[int(arg)%len(fuzzKeys)], ts, txn, true, nil)
			case 5, 6: // freeze epoch at the current clock
				if ts > wLast {
					wLast = ts
					p.freeze(wLast)
					p.compare(t, wLast, extra)
				}
			case 7: // compare at a legal snapshot at or above the watermark
				qts := wLast + int64(arg)
				if qts > ts {
					qts = ts
				}
				if qts >= wLast && qts > 0 {
					p.compare(t, qts, extra)
				}
			}
		}
		if ts == 0 {
			return
		}
		p.freeze(ts)
		p.compare(t, ts, extra)
	})
}

// TestColumnarConcurrent drives feed, vacuum, compaction and queries
// concurrently (meant for -race): writers own disjoint key ranges, the
// compactor trails the visible clock by a large retention, and after
// quiescing the columnar state must equal the final write of every key
// and the oracle's read of a plain twin fed the same writes.
func TestColumnarConcurrent(t *testing.T) {
	vis := &fakeVis{}
	mt, mtRef := memtable.New(), memtable.New()
	cs := colstore.NewStore()
	comp := colstore.NewCompactor(mt, cs)
	ex := NewExecutor(mt, vis, cs)

	const writers = 4
	const keysPer = 200
	const rounds = 30
	var clock atomic.Int64
	clock.Store(1)

	done := make(chan struct{})
	var writerWG, churnWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keysPer; k++ {
					key := uint64(w*keysPer + k)
					ts := clock.Add(1)
					del := r%7 == 3 && k%5 == 0
					var cols []wal.Column
					if !del {
						cols = []wal.Column{colI64(int64(w*rounds + r))}
					}
					for _, m := range []*memtable.Memtable{mt, mtRef} {
						m.Table(1).GetOrCreate(key).Append(&memtable.Version{
							TxnID: uint64(ts), CommitTS: ts, Deleted: del, Columns: cols,
						})
					}
					vis.ts.Store(ts)
				}
			}
		}(w)
	}
	churnWG.Add(3)
	go func() { // compactor + vacuum trailing far behind the clock
		defer churnWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if w := vis.ts.Load() - int64(writers*keysPer*rounds/2); w > 0 {
				mt.Vacuum(w)
				comp.RunOnce(w)
			}
		}
	}()
	// Two fresh-snapshot readers, so they also race to build each (delta
	// view, base) placement: ordering invariant under churn.
	for range 2 {
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := ex.Begin(0, 1)
				last := int64(-1)
				_ = s.Scan(1, 0, ^uint64(0), func(r Row) bool {
					if int64(r.Key) <= last {
						t.Errorf("scan keys out of order: %d after %d", r.Key, last)
						return false
					}
					last = int64(r.Key)
					return true
				})
				if n, err := s.Count(1); err != nil || n < 0 {
					t.Errorf("Count = %d, %v", n, err)
				}
				_, _ = s.SumInt64(1, 1)
				_, _ = s.MaxCommitTS(1)
			}
		}()
	}

	// Wait for the writers, then stop the background churn.
	writerWG.Wait()
	close(done)
	churnWG.Wait()

	// Quiesce: final freeze at the head, then verify every key's last
	// write is what the planner serves.
	final := vis.ts.Load()
	mt.Vacuum(final)
	comp.RunOnce(final)
	s := ex.Begin(final, 1)
	compareExecutor(t, "columnar", s, mtRef, [2]uint64{0, keysPer})
	for w := 0; w < writers; w++ {
		for k := 0; k < keysPer; k++ {
			key := uint64(w*keysPer + k)
			lastRound := rounds - 1
			wantDel := lastRound%7 == 3 && k%5 == 0
			row, ok, err := s.Get(1, key)
			if err != nil {
				t.Fatal(err)
			}
			if ok == wantDel {
				t.Fatalf("key %d: ok=%v, want deleted=%v", key, ok, wantDel)
			}
			if ok {
				want := int64(w*rounds + lastRound)
				if got := int64(binary.LittleEndian.Uint64(row.Columns[1])); got != want {
					t.Fatalf("key %d: col1 = %d, want %d", key, got, want)
				}
			}
		}
	}
}

// TestColumnarZeroAllocOps pins the planner's steady-state operations at
// zero allocations on both sides of its one selection: a majority-frozen
// table with a small hot delta, and the same rows never compacted (on a
// columnar node and on a row-store one), where every record is delta.
func TestColumnarZeroAllocOps(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomises sync.Pool caching; alloc counts are meaningless")
	}
	for _, fx := range []struct {
		name     string
		columnar bool
		compact  bool
	}{{"compacted", true, true}, {"never-compacted", true, false}, {"row-store", false, false}} {
		vis := &fakeVis{}
		mt := memtable.New()
		var cs *colstore.Store
		if fx.columnar {
			cs = colstore.NewStore()
		}
		ex := NewExecutor(mt, vis, cs)

		ts := int64(0)
		put := func(key uint64, del bool) {
			ts++
			var cols []wal.Column
			if !del {
				cols = []wal.Column{colI64(int64(key)), {ID: 2, Value: []byte("v")}}
			}
			mt.Table(1).GetOrCreate(key).Append(&memtable.Version{
				TxnID: uint64(ts), CommitTS: ts, Deleted: del, Columns: cols,
			})
			vis.ts.Store(ts)
		}
		for k := uint64(0); k < 4096; k++ {
			put(k, k%64 == 63)
		}
		mt.Vacuum(ts)
		if fx.compact && colstore.NewCompactor(mt, cs).RunOnce(ts) == 0 {
			t.Fatal("nothing froze")
		}
		for k := uint64(0); k < 64; k++ { // hot delta over the frozen base
			put(k*61, k%9 == 0)
		}

		s := ex.Begin(ts, 1)
		cols := []uint32{1, 2}
		ops := map[string]func(){
			"Count":       func() { _, _ = s.Count(1) },
			"SumInt64":    func() { _, _ = s.SumInt64(1, 1) },
			"MaxCommitTS": func() { _, _ = s.MaxCommitTS(1) },
			"ScanCols": func() {
				_ = s.ScanCols(1, 0, ^uint64(0), cols, func(uint64, int64, [][]byte) bool { return true })
			},
			"ScanKeys": func() {
				_ = s.ScanKeys(1, 0, ^uint64(0), func([]uint64, []int64) bool { return true })
			},
		}
		for name, op := range ops {
			op() // warm the pooled plan buffers (and the memtable's scan buffers)
			if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
				t.Errorf("%s/%s allocates %.1f/op, want 0", fx.name, name, allocs)
			}
		}
	}
}

// TestPlacementKeepsNothingAlive pins that a cached placement of the delta
// in the base keeps neither a replaced base segment nor a replaced delta
// view reachable, whether or not the table is read again: a compaction
// that publishes a new base makes the old base and the view placed in it
// garbage, and so does a view change that leaves the base in place.
func TestPlacementKeepsNothingAlive(t *testing.T) {
	vis := &fakeVis{}
	mt, cs := memtable.New(), colstore.NewStore()
	comp := colstore.NewCompactor(mt, cs)
	ex := NewExecutor(mt, vis, cs)
	ts := int64(0)
	put := func(keys ...uint64) {
		for _, k := range keys {
			ts++
			mt.Table(1).GetOrCreate(k).Append(&memtable.Version{
				TxnID: uint64(ts), CommitTS: ts, Columns: []wal.Column{colI64(int64(k))},
			})
		}
		vis.ts.Store(ts)
	}
	// placed reads the table, which places the view in the base, and
	// returns both held only weakly.
	placed := func(want int) (weak.Pointer[colstore.Segment], weak.Pointer[memtable.Delta]) {
		t.Helper()
		if n, err := ex.Begin(ts, 1).Count(1); err != nil || n != want {
			t.Fatalf("Count = %d (err %v), want %d", n, err, want)
		}
		return weak.Make(cs.Get(1).Base()), weak.Make(mt.Table(1).Delta())
	}
	put(1, 2, 3, 4)
	comp.RunOnce(ts)
	put(2, 5)
	oldBase, oldView := placed(5)
	put(6)
	if comp.RunOnce(ts) == 0 {
		t.Fatal("nothing froze")
	}
	runtime.GC()
	if oldBase.Value() != nil || oldView.Value() != nil {
		t.Fatal("a compaction's new base left the old base or its placed view reachable")
	}

	put(7)
	w := ts
	_, oldView = placed(7)
	put(8)
	if comp.RunOnce(w-1) != 0 { // freezes nothing, but rebuilds the view
		t.Fatal("a record newer than the watermark froze")
	}
	runtime.GC()
	if oldView.Value() != nil {
		t.Fatal("the base's placement kept a replaced view reachable")
	}
	placed(8)
}

// TestColumnarBeforeFirstCompaction pins the never-compacted shape on a
// columnar node: with no base segment yet the planner must serve every row
// from the chains (under the table read lock, so a racing first compaction
// cannot empty chains mid-scan — the race variant is
// TestColumnarConcurrent).
func TestColumnarBeforeFirstCompaction(t *testing.T) {
	vis := &fakeVis{}
	mt := memtable.New()
	cs := colstore.NewStore()
	ex := NewExecutor(mt, vis, cs)
	ts := int64(0)
	for k := uint64(0); k < 10; k++ {
		ts++
		mt.Table(1).GetOrCreate(k).Append(&memtable.Version{
			TxnID: uint64(ts), CommitTS: ts, Columns: []wal.Column{colI64(int64(k))},
		})
	}
	vis.ts.Store(ts)
	s := ex.Begin(ts, 1)
	n := 0
	if err := s.Scan(1, 0, ^uint64(0), func(Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("pre-compaction scan = %d rows, want 10", n)
	}
	if got, _ := s.Count(1); got != 10 {
		t.Fatalf("pre-compaction Count = %d, want 10", got)
	}
	if fmt.Sprint(cs.Segments.Load()) != "0" {
		t.Fatal("no segment should exist yet")
	}
}

// TestDeltaViewFollowsPublishedWrites pins the currency of the table's
// shared delta view: a query builds it, then a version lands on a frozen
// record and on a brand-new one and the epoch publishes, and a query at
// the new timestamp must read both. The view is reused only while no hot
// list changed, so if markHot did not bump its shard's counter the second
// query would read the first view and miss both writes.
func TestDeltaViewFollowsPublishedWrites(t *testing.T) {
	p := newTwinPair()
	for k := uint64(0); k < 8; k++ {
		p.apply(k, int64(k+1), k+1, false, []wal.Column{colI64(int64(k))})
	}
	p.freeze(8)
	p.apply(100, 9, 9, false, []wal.Column{colI64(100)})
	p.compare(t, 9, [2]uint64{2, 200}) // builds the view: {100}

	p.apply(3, 10, 10, false, []wal.Column{colI64(33)}) // re-dirties frozen key 3
	p.apply(50, 11, 11, false, []wal.Column{colI64(50)})
	p.compare(t, 11, [2]uint64{2, 200})

	s := p.exs[0].ex.Begin(11, 1)
	if sum, _ := s.SumInt64(1, 1); sum != 0+1+2+33+4+5+6+7+100+50 {
		t.Fatalf("SumInt64 at ts 11 = %d, want the new values of keys 3 and 50 counted", sum)
	}
	var keys []uint64
	_ = s.ScanKeys(1, 2, 200, func(ks []uint64, _ []int64) bool {
		keys = append(keys, ks...)
		return true
	})
	if fmt.Sprint(keys) != "[2 3 4 5 6 7 50 100]" {
		t.Fatalf("ScanKeys[2,200] at ts 11 = %v", keys)
	}
}
