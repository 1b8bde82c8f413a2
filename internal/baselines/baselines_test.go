package baselines

import (
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/memtable"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/wal"
	"aets/internal/workload"
)

// replayerUnderTest abstracts ATR and C5 for the shared equivalence tests.
type replayerUnderTest interface {
	Name() string
	Start()
	Feed(*epoch.Encoded) error
	Drain()
	Stop()
	WaitVisible(int64, []wal.TableID)
	WaitGlobal(int64) bool
	GlobalTS() int64
	Err() error
}

func runBaseline(t *testing.T, r replayerUnderTest, txns []wal.Txn, epochSize int) {
	t.Helper()
	r.Start()
	defer r.Stop()
	for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, epochSize)) {
		enc := enc
		if err := r.Feed(&enc); err != nil {
			t.Fatal(err)
		}
	}
	r.Drain()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func equivalenceTest(t *testing.T, mk func(mt *memtable.Memtable) replayerUnderTest) {
	gen := workload.NewTPCC(4)
	p := primary.New(gen, 21)
	txns := p.GenerateTxns(3000)

	ref := memtable.New()
	reference.Apply(ref, txns)

	mt := memtable.New()
	r := mk(mt)
	runBaseline(t, r, txns, 256)

	tables := workload.TableIDs(gen.Tables())
	if err := reference.Equal(ref, mt, tables); err != nil {
		t.Fatalf("%s: %v", r.Name(), err)
	}
	if err := reference.CheckChains(mt, tables); err != nil {
		t.Fatalf("%s: %v", r.Name(), err)
	}
}

func TestATRMatchesSerialReference(t *testing.T) {
	equivalenceTest(t, func(mt *memtable.Memtable) replayerUnderTest {
		return NewATR(mt, 8)
	})
}

func TestC5MatchesSerialReference(t *testing.T) {
	equivalenceTest(t, func(mt *memtable.Memtable) replayerUnderTest {
		return NewC5(mt, 8, time.Millisecond)
	})
}

func TestATRSingleWorker(t *testing.T) {
	equivalenceTest(t, func(mt *memtable.Memtable) replayerUnderTest {
		return NewATR(mt, 1)
	})
}

func TestC5SingleWorker(t *testing.T) {
	equivalenceTest(t, func(mt *memtable.Memtable) replayerUnderTest {
		return NewC5(mt, 1, time.Millisecond)
	})
}

func visibilityAfterDrainTest(t *testing.T, r replayerUnderTest, lastTS int64) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		r.WaitVisible(lastTS, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatalf("%s: WaitVisible(%d) stuck after Drain", r.Name(), lastTS)
	}
}

func TestATRVisibilityReachesLastCommit(t *testing.T) {
	gen := workload.NewTPCC(2)
	p := primary.New(gen, 22)
	txns := p.GenerateTxns(800)
	mt := memtable.New()
	r := NewATR(mt, 4)
	runBaseline(t, r, txns, 128)
	visibilityAfterDrainTest(t, r, txns[len(txns)-1].CommitTS)
}

func TestC5VisibilityReachesLastCommit(t *testing.T) {
	gen := workload.NewTPCC(2)
	p := primary.New(gen, 23)
	txns := p.GenerateTxns(800)
	mt := memtable.New()
	r := NewC5(mt, 4, time.Millisecond)
	runBaseline(t, r, txns, 128)
	visibilityAfterDrainTest(t, r, txns[len(txns)-1].CommitTS)
}

// TestATRNeverExposesFutureVersions checks the snapshot-read invariant: a
// reader admitted at qts never observes a version with a later commit
// timestamp on any record it reads.
func TestSnapshotReadInvariant(t *testing.T) {
	gen := workload.NewTPCC(1)
	for name, mk := range map[string]func(mt *memtable.Memtable) replayerUnderTest{
		"ATR": func(mt *memtable.Memtable) replayerUnderTest { return NewATR(mt, 4) },
		"C5":  func(mt *memtable.Memtable) replayerUnderTest { return NewC5(mt, 4, time.Millisecond) },
	} {
		p := primary.New(gen, 24)
		txns := p.GenerateTxns(600)
		mid := txns[len(txns)/2].CommitTS

		mt := memtable.New()
		r := mk(mt)
		r.Start()
		for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, 100)) {
			enc := enc
			r.Feed(&enc)
		}
		r.WaitVisible(mid, nil)
		// Read everything at qts=mid while replay continues.
		for _, tid := range workload.TableIDs(gen.Tables()) {
			mt.Table(tid).Scan(0, ^uint64(0), func(key uint64, rec *memtable.Record) bool {
				if v := rec.Visible(mid); v != nil && v.CommitTS > mid {
					t.Errorf("%s: table %d key %d: future version %d visible at %d",
						name, tid, key, v.CommitTS, mid)
					return false
				}
				return true
			})
		}
		r.Drain()
		r.Stop()
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestATRSequenceCheckOrdersHotRow forces heavy conflicts on single rows to
// exercise the operation sequence check: all writers hit one row per table.
func TestATRSequenceCheckOrdersHotRow(t *testing.T) {
	var txns []wal.Txn
	for i := 1; i <= 2000; i++ {
		txns = append(txns, wal.Txn{ID: uint64(i), CommitTS: int64(i * 10),
			Entries: []wal.Entry{{
				Type: wal.TypeUpdate, TxnID: uint64(i), Table: 1, RowKey: 7,
				WriteSeq: uint64(i - 1),
				Columns:  []wal.Column{{ID: 1, Value: []byte{byte(i)}}},
			}}})
	}
	mt := memtable.New()
	r := NewATR(mt, 8)
	runBaseline(t, r, txns, 200)

	rec := mt.Table(1).Get(7)
	if rec == nil || rec.ChainLen() != 2000 {
		t.Fatalf("chain length %d, want 2000", rec.ChainLen())
	}
	if !rec.ChainOrdered() {
		t.Fatal("conflicting writes applied out of order")
	}
	v := rec.Latest()
	if v.TxnID != 2000 {
		t.Fatalf("latest version from txn %d, want 2000", v.TxnID)
	}
}

// TestC5RowOrderUnderConflicts does the same for C5's per-row queues.
func TestC5RowOrderUnderConflicts(t *testing.T) {
	var txns []wal.Txn
	for i := 1; i <= 2000; i++ {
		txns = append(txns, wal.Txn{ID: uint64(i), CommitTS: int64(i * 10),
			Entries: []wal.Entry{{
				Type: wal.TypeUpdate, TxnID: uint64(i), Table: 1, RowKey: 7,
				Columns: []wal.Column{{ID: 1, Value: []byte{byte(i)}}},
			}}})
	}
	mt := memtable.New()
	r := NewC5(mt, 8, time.Millisecond)
	runBaseline(t, r, txns, 200)

	rec := mt.Table(1).Get(7)
	if rec == nil || rec.ChainLen() != 2000 || !rec.ChainOrdered() {
		t.Fatal("row order violated under conflicts")
	}
}

func TestHeartbeatAdvancesBaselines(t *testing.T) {
	for name, mk := range map[string]func(mt *memtable.Memtable) replayerUnderTest{
		"ATR": func(mt *memtable.Memtable) replayerUnderTest { return NewATR(mt, 2) },
		"C5":  func(mt *memtable.Memtable) replayerUnderTest { return NewC5(mt, 2, time.Millisecond) },
	} {
		r := mk(memtable.New())
		r.Start()
		r.Feed(&epoch.Encoded{Seq: 0, LastCommitTS: 777})
		r.Drain()
		done := make(chan struct{})
		go func() {
			r.WaitVisible(777, nil)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: heartbeat did not advance snapshot", name)
		}
		r.Stop()
	}
}

func TestBaselineLifecycleErrors(t *testing.T) {
	for name, mk := range map[string]func(mt *memtable.Memtable) replayerUnderTest{
		"ATR": func(mt *memtable.Memtable) replayerUnderTest { return NewATR(mt, 2) },
		"C5":  func(mt *memtable.Memtable) replayerUnderTest { return NewC5(mt, 2, time.Millisecond) },
	} {
		enc := &epoch.Encoded{Seq: 0, LastCommitTS: 1}

		// Feed before Start fails fast instead of deadlocking on the
		// not-yet-consumed feed channel.
		r := mk(memtable.New())
		if err := r.Feed(enc); err != errNotStarted {
			t.Fatalf("%s: Feed before Start: got %v, want errNotStarted", name, err)
		}
		r.Start()
		r.Start() // idempotent
		if err := r.Feed(enc); err != nil {
			t.Fatalf("%s: Feed on started replayer: %v", name, err)
		}
		r.Stop()
		r.Stop() // idempotent
		if err := r.Feed(enc); err != errStopped {
			t.Fatalf("%s: Feed after Stop: got %v, want errStopped", name, err)
		}

		// Stop without Start must not hang and must poison Feed.
		r2 := mk(memtable.New())
		r2.Stop()
		if err := r2.Feed(enc); err != errStopped {
			t.Fatalf("%s: Feed after Stop-without-Start: got %v, want errStopped", name, err)
		}
	}
}

// TestBaselineWaitGlobal: the routed-read wait returns true once the
// snapshot timestamp covers it and false once the replayer stops short
// of it, started or not.
func TestBaselineWaitGlobal(t *testing.T) {
	for name, mk := range map[string]func(mt *memtable.Memtable) replayerUnderTest{
		"ATR": func(mt *memtable.Memtable) replayerUnderTest { return NewATR(mt, 2) },
		"C5":  func(mt *memtable.Memtable) replayerUnderTest { return NewC5(mt, 2, time.Millisecond) },
	} {
		wait := func(r replayerUnderTest, qts int64) chan bool {
			out := make(chan bool, 1)
			go func() { out <- r.WaitGlobal(qts) }()
			return out
		}
		expect := func(out chan bool, want bool) {
			t.Helper()
			select {
			case got := <-out:
				if got != want {
					t.Fatalf("%s: WaitGlobal = %v, want %v", name, got, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: WaitGlobal never returned", name)
			}
		}
		r := mk(memtable.New())
		r.Start()
		covered := wait(r, 300)
		if err := r.Feed(&epoch.Encoded{Seq: 0, LastCommitTS: 300}); err != nil {
			t.Fatal(err)
		}
		expect(covered, true)
		stranded := wait(r, 301)
		r.Stop()
		expect(stranded, false)

		never := mk(memtable.New())
		stranded = wait(never, 1)
		never.Stop()
		expect(stranded, false)
	}
}
