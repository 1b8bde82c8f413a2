package replay

import (
	"testing"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// buildSkewedTxns creates transactions where the hot table receives
// hotShare of the entries and the cold table the rest.
func buildSkewedTxns(n int, hotPerTxn, coldPerTxn int) []wal.Txn {
	hot, cold := wal.TableID(1), wal.TableID(2)
	txns := make([]wal.Txn, n)
	for i := range txns {
		id := uint64(i + 1)
		t := wal.Txn{ID: id, CommitTS: int64(id) * 10}
		for k := 0; k < hotPerTxn; k++ {
			t.Entries = append(t.Entries, wal.Entry{
				Type: wal.TypeUpdate, TxnID: id, Table: hot, RowKey: uint64(i*hotPerTxn + k + 1),
				Columns: []wal.Column{{ID: 1, Value: make([]byte, 32)}},
			})
		}
		for k := 0; k < coldPerTxn; k++ {
			t.Entries = append(t.Entries, wal.Entry{
				Type: wal.TypeUpdate, TxnID: id, Table: cold, RowKey: uint64(i*coldPerTxn + k + 1),
				Columns: []wal.Column{{ID: 1, Value: make([]byte, 32)}},
			})
		}
		txns[i] = t
	}
	return txns
}

// TestStageTimesTrackEntryShares pins the Fig 8(b)/9(b) metric: with a
// 30%-hot workload, the hot stage's share of total replay time must be far
// below one; with a 90%-hot workload it must dominate.
func TestStageTimesTrackEntryShares(t *testing.T) {
	plan := grouping.Build(map[wal.TableID]float64{1: 1000},
		[]wal.TableID{1, 2}, grouping.Options{PerTable: true})

	// Depth 1: the Fig 8(b)/9(b) shares are defined over exclusive stages,
	// and at depth 1 an epoch's cold group replays only after its hot group
	// has published, with no other epoch in flight. Deeper pipelines
	// overlap stages of adjacent epochs, so a group's replay time also
	// contains contention with the other epoch's groups and the shares blur.
	// 32 epochs per run: on a busy host a few descheduled epochs cannot
	// swing the totals the way they could over eight.
	run := func(hotPerTxn, coldPerTxn int) float64 {
		mt := memtable.New()
		e := New("AETS", mt, plan, Config{Workers: 2, TwoStage: true, Pipeline: 1})
		e.Start()
		defer e.Stop()
		for _, enc := range epoch.EncodeAll(epoch.MustSplit(buildSkewedTxns(8000, hotPerTxn, coldPerTxn), 256)) {
			enc := enc
			feed(t, e, &enc)
		}
		e.Drain()
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		hot, cold := e.StageTimes()
		if hot <= 0 || cold <= 0 {
			t.Fatalf("stage times %v %v", hot, cold)
		}
		return float64(hot) / float64(hot+cold)
	}

	lowShare := run(3, 7)  // 30% hot entries
	highShare := run(9, 1) // 90% hot entries
	if lowShare >= highShare {
		t.Fatalf("hot-stage share not tracking entry share: 30%%-hot=%.2f 90%%-hot=%.2f",
			lowShare, highShare)
	}
	if lowShare > 0.65 {
		t.Fatalf("30%%-hot workload spends %.2f of replay in the hot stage", lowShare)
	}
	if highShare < 0.6 {
		t.Fatalf("90%%-hot workload spends only %.2f of replay in the hot stage", highShare)
	}
}

// TestSingleStageCollapsesToHotBucket verifies TPLR mode accounts all
// replay time to the first bucket.
func TestSingleStageCollapsesToHotBucket(t *testing.T) {
	plan := grouping.SingleGroup([]wal.TableID{1, 2})
	mt := memtable.New()
	e := New("TPLR", mt, plan, Config{Workers: 2, TwoStage: false, Pipeline: 2})
	e.Start()
	defer e.Stop()
	for _, enc := range epoch.EncodeAll(epoch.MustSplit(buildSkewedTxns(500, 2, 2), 128)) {
		enc := enc
		feed(t, e, &enc)
	}
	e.Drain()
	hot, cold := e.StageTimes()
	if hot <= 0 || cold != 0 {
		t.Fatalf("single-stage times: hot=%v cold=%v", hot, cold)
	}
}

// TestSerialFastPathEquivalence forces the single-worker serial path and
// checks it produces the same memtable as the multi-worker path.
func TestSerialFastPathEquivalence(t *testing.T) {
	plan := grouping.SingleGroup([]wal.TableID{1, 2})
	txns := buildSkewedTxns(800, 2, 3)

	run := func(workers int) *memtable.Memtable {
		mt := memtable.New()
		e := New("AETS", mt, plan, Config{Workers: workers, TwoStage: true, Pipeline: 2})
		e.Start()
		defer e.Stop()
		for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, 200)) {
			enc := enc
			feed(t, e, &enc)
		}
		e.Drain()
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		return mt
	}

	serial := run(1)
	parallel := run(6)
	for _, tid := range []wal.TableID{1, 2} {
		if serial.Table(tid).Len() != parallel.Table(tid).Len() {
			t.Fatalf("table %d: %d vs %d records", tid,
				serial.Table(tid).Len(), parallel.Table(tid).Len())
		}
	}
}
