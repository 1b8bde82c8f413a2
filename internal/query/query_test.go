package query

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/replay"
	"aets/internal/wal"
)

// testBackup replays a small hand-built history and returns the engine and
// memtable: table 1 rows 1..3 with two versions each, a delete on row 2.
func testBackup(t *testing.T) (*replay.Engine, *memtable.Memtable, int64) {
	t.Helper()
	mk := func(id uint64, ts int64, key uint64, val string, del bool) wal.Txn {
		e := wal.Entry{Type: wal.TypeUpdate, TxnID: id, Timestamp: ts, Table: 1, RowKey: key}
		if del {
			e.Type = wal.TypeDelete
		} else {
			e.Columns = []wal.Column{{ID: 1, Value: []byte(val)}}
		}
		return wal.Txn{ID: id, CommitTS: ts, Entries: []wal.Entry{e}}
	}
	txns := []wal.Txn{
		mk(1, 10, 1, "a1", false),
		mk(2, 20, 2, "b1", false),
		mk(3, 30, 3, "c1", false),
		mk(4, 40, 1, "a2", false),
		mk(5, 50, 2, "", true), // delete row 2
	}
	mt := memtable.New()
	eng := replay.New("AETS", mt, grouping.SingleGroup([]wal.TableID{1}), replay.Config{Workers: 2})
	eng.Start()
	t.Cleanup(eng.Stop)
	for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, 2)) {
		enc := enc
		eng.Feed(&enc)
	}
	eng.Drain()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return eng, mt, 50
}

func TestSnapshotGet(t *testing.T) {
	eng, mt, last := testBackup(t)
	ex := NewExecutor(mt, eng, nil)

	s := ex.Begin(last, 1)
	row, ok, err := s.Get(1, 1)
	if err != nil || !ok || string(row.Columns[1]) != "a2" || row.CommitTS != 40 {
		t.Fatalf("row 1 at %d: %+v ok=%v err=%v", last, row, ok, err)
	}
	if _, ok, _ := s.Get(1, 2); ok {
		t.Fatal("deleted row visible at snapshot past its delete")
	}
	if _, ok, _ := s.Get(1, 99); ok {
		t.Fatal("phantom row")
	}

	// Time travel: a snapshot before the delete and the second version.
	old := ex.Begin(35, 1)
	row, ok, _ = old.Get(1, 1)
	if !ok || string(row.Columns[1]) != "a1" {
		t.Fatalf("row 1 at 35: %+v", row)
	}
	if row, ok, _ = old.Get(1, 2); !ok || string(row.Columns[1]) != "b1" {
		t.Fatalf("row 2 at 35: %+v ok=%v", row, ok)
	}
}

func TestSnapshotScanAndCount(t *testing.T) {
	eng, mt, last := testBackup(t)
	ex := NewExecutor(mt, eng, nil)
	s := ex.Begin(last, 1)

	var keys []uint64
	if err := s.Scan(1, 0, ^uint64(0), func(r Row) bool {
		keys = append(keys, r.Key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 3 {
		t.Fatalf("scan keys %v, want [1 3] (row 2 deleted)", keys)
	}
	n, err := s.Count(1)
	if err != nil || n != 2 {
		t.Fatalf("count %d err %v", n, err)
	}
	max, err := s.MaxCommitTS(1)
	if err != nil || max != 40 {
		t.Fatalf("max commit ts %d err %v", max, err)
	}
}

func TestUndeclaredTableRejected(t *testing.T) {
	eng, mt, last := testBackup(t)
	ex := NewExecutor(mt, eng, nil)
	s := ex.Begin(last, 1)
	if _, _, err := s.Get(2, 1); err == nil {
		t.Fatal("read from undeclared table accepted")
	}
	if err := s.Scan(2, 0, 10, func(Row) bool { return true }); err == nil {
		t.Fatal("scan of undeclared table accepted")
	}
}

func TestBeginFreshest(t *testing.T) {
	eng, mt, last := testBackup(t)
	ex := NewExecutor(mt, eng, nil)
	s := ex.Begin(0, 1) // freshest visible, never blocks
	if s.TS < last {
		t.Fatalf("freshest snapshot at %d, want ≥ %d", s.TS, last)
	}
}

// TestBeginFreshestRacesFeeds pins the qts ≤ 0 contract while the
// replayer is actively advancing: Begin(0) must return without blocking
// and its snapshot timestamp must never run ahead of the visible
// watermark — neither at admission (TS ≤ GlobalTS read afterwards, by
// monotonicity) nor in the data (no readable version newer than TS).
// Run under -race this also shakes out unsynchronised state between
// Begin and the replay workers.
func TestBeginFreshestRacesFeeds(t *testing.T) {
	const (
		txnCount  = 4096
		epochSize = 64
		readers   = 4
	)
	txns := make([]wal.Txn, txnCount)
	for i := range txns {
		ts := int64(i+1) * 10
		txns[i] = wal.Txn{ID: uint64(i + 1), CommitTS: ts, Entries: []wal.Entry{{
			Type: wal.TypeUpdate, TxnID: uint64(i + 1), Timestamp: ts,
			Table: 1, RowKey: uint64(i%64) + 1,
			Columns: []wal.Column{{ID: 1, Value: []byte(fmt.Sprintf("v%d", i))}},
		}}}
	}
	encs := epoch.EncodeAll(epoch.MustSplit(txns, epochSize))

	mt := memtable.New()
	eng := replay.New("AETS", mt, grouping.SingleGroup([]wal.TableID{1}), replay.Config{Workers: 4})
	eng.Start()
	t.Cleanup(eng.Stop)
	ex := NewExecutor(mt, eng, nil)

	var fed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range encs {
			eng.Feed(&encs[i])
		}
		eng.Drain()
		fed.Store(true)
	}()

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastTS int64
			for !fed.Load() {
				s := ex.Begin(0, 1)
				// The watermark is monotone, so a GlobalTS read after
				// Begin is ≥ the one Begin pinned; TS exceeding it means
				// Begin admitted a snapshot ahead of visibility.
				if wm := eng.GlobalTS(); s.TS > wm {
					errs <- fmt.Errorf("Begin(0) pinned ts %d ahead of visible watermark %d", s.TS, wm)
					return
				}
				if s.TS < lastTS {
					errs <- fmt.Errorf("freshest snapshot ts went backwards: %d after %d", s.TS, lastTS)
					return
				}
				lastTS = s.TS
				max, err := s.MaxCommitTS(1)
				if err != nil {
					errs <- err
					return
				}
				if max > s.TS {
					errs <- fmt.Errorf("snapshot at %d read a version committed at %d", s.TS, max)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	// After the drain the freshest snapshot sits exactly at the last
	// commit and sees the final version of every key.
	s := ex.Begin(0, 1)
	if want := txns[txnCount-1].CommitTS; s.TS < want {
		t.Fatalf("post-drain freshest snapshot at %d, want ≥ %d", s.TS, want)
	}
	n, err := s.Count(1)
	if err != nil || n != 64 {
		t.Fatalf("post-drain count %d err %v, want 64", n, err)
	}
}

func TestSnapshotScanEarlyStop(t *testing.T) {
	eng, mt, last := testBackup(t)
	ex := NewExecutor(mt, eng, nil)
	s := ex.Begin(last, 1)
	visits := 0
	_ = s.Scan(1, 0, ^uint64(0), func(Row) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("early stop visited %d rows", visits)
	}
}
