package dispatch

import (
	"math/rand"
	"testing"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/wal"
)

func twoGroupPlan() *grouping.Plan {
	// Tables 1,2 hot (group 0 and 1), table 3 cold (group 2).
	return grouping.Build(
		map[wal.TableID]float64{1: 100, 2: 50},
		[]wal.TableID{1, 2, 3},
		grouping.Options{PerTable: true},
	)
}

func makeEncoded(t *testing.T, txns []wal.Txn) *epoch.Encoded {
	t.Helper()
	ep := &epoch.Epoch{Seq: 0, Txns: txns}
	enc, _ := epoch.Encode(ep, 1)
	return &enc
}

func entry(table wal.TableID, key uint64) wal.Entry {
	return wal.Entry{Type: wal.TypeUpdate, Table: table, RowKey: key,
		Columns: []wal.Column{{ID: 1, Value: []byte("v")}}}
}

func TestDispatchRoutesByGroup(t *testing.T) {
	plan := twoGroupPlan()
	txns := []wal.Txn{
		{ID: 1, CommitTS: 10, Entries: []wal.Entry{entry(1, 1), entry(3, 1)}},
		{ID: 2, CommitTS: 20, Entries: []wal.Entry{entry(2, 1)}},
		{ID: 3, CommitTS: 30, Entries: []wal.Entry{entry(1, 2), entry(1, 3)}},
	}
	res, err := NewBuffers().Dispatch(makeEncoded(t, txns), plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 3 || res.Entries != 5 {
		t.Fatalf("txns=%d entries=%d", res.Txns, res.Entries)
	}
	if res.LastCommitTS != 30 || res.LastTxnID != 3 {
		t.Fatalf("last ts=%d id=%d", res.LastCommitTS, res.LastTxnID)
	}

	g1, _ := plan.GroupOf(1)
	g2, _ := plan.GroupOf(2)
	g3, _ := plan.GroupOf(3)

	gb1 := res.PerGroup[g1]
	if gb1 == nil || gb1.Entries != 3 || len(gb1.Pieces) != 2 {
		t.Fatalf("group of table 1: %+v", gb1)
	}
	if len(gb1.CommitOrder) != 2 || gb1.CommitOrder[0] != 1 || gb1.CommitOrder[1] != 3 {
		t.Fatalf("commit order of table-1 group: %v", gb1.CommitOrder)
	}
	gb2 := res.PerGroup[g2]
	if gb2 == nil || gb2.Entries != 1 || gb2.CommitOrder[0] != 2 {
		t.Fatalf("group of table 2: %+v", gb2)
	}
	gb3 := res.PerGroup[g3]
	if gb3 == nil || gb3.Entries != 1 || gb3.CommitOrder[0] != 1 {
		t.Fatalf("group of table 3: %+v", gb3)
	}
}

func TestDispatchSplitsMultiGroupTxn(t *testing.T) {
	plan := twoGroupPlan()
	txns := []wal.Txn{
		{ID: 1, CommitTS: 10, Entries: []wal.Entry{entry(1, 1), entry(2, 1), entry(3, 1)}},
	}
	res, err := NewBuffers().Dispatch(makeEncoded(t, txns), plan)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, gb := range res.PerGroup {
		if gb == nil {
			continue
		}
		seen++
		if len(gb.Pieces) != 1 || gb.Pieces[0].TxnID != 1 || gb.Pieces[0].CommitTS != 10 {
			t.Fatalf("piece: %+v", gb.Pieces[0])
		}
	}
	if seen != 3 {
		t.Fatalf("txn split over %d groups, want 3", seen)
	}
}

func TestDispatchPieceFramesDecode(t *testing.T) {
	plan := twoGroupPlan()
	txns := []wal.Txn{
		{ID: 1, CommitTS: 10, Entries: []wal.Entry{entry(1, 42)}},
	}
	res, err := NewBuffers().Dispatch(makeEncoded(t, txns), plan)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := plan.GroupOf(1)
	frame := res.PerGroup[g1].Pieces[0].Frames[0]
	e, _, err := wal.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if e.Table != 1 || e.RowKey != 42 || string(e.Columns[0].Value) != "v" {
		t.Fatalf("decoded frame: %+v", e)
	}
}

// TestDispatchByteAndColumnAccounting: a batch's Bytes is the sum of its
// frames, and the Columns dispatch counts from frame headers — per piece
// and per batch — is exactly what a full decode of those frames yields,
// which is what lets replay carve its column slab before decoding.
func TestDispatchByteAndColumnAccounting(t *testing.T) {
	plan := twoGroupPlan()
	wide := entry(1, 2)
	wide.Columns = []wal.Column{{ID: 1, Value: []byte("a")}, {ID: 2, Value: nil}, {ID: 3, Value: []byte("ccc")}}
	txns := []wal.Txn{
		{ID: 1, CommitTS: 10, Entries: []wal.Entry{entry(1, 1), wide, entry(2, 1)}},
		{ID: 2, CommitTS: 20, Entries: []wal.Entry{{Type: wal.TypeDelete, Table: 1, RowKey: 1}, entry(1, 3)}},
	}
	enc := makeEncoded(t, txns)
	res, err := NewBuffers().Dispatch(enc, plan)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := plan.GroupOf(1)
	gb := res.PerGroup[g1]
	var frameBytes, batchCols int
	for i, p := range gb.Pieces {
		pieceCols := 0
		for _, f := range p.Frames {
			frameBytes += len(f)
			e, _, err := wal.Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			pieceCols += len(e.Columns)
		}
		if p.Columns != pieceCols {
			t.Fatalf("piece %d: Columns=%d, frames decode to %d", i, p.Columns, pieceCols)
		}
		batchCols += pieceCols
	}
	if gb.Bytes != frameBytes {
		t.Fatalf("Bytes=%d, frames sum to %d", gb.Bytes, frameBytes)
	}
	if gb.Entries != 4 || gb.Columns != batchCols || batchCols != 5 {
		t.Fatalf("Entries=%d Columns=%d, frames decode to 4 entries and %d columns (want 5)", gb.Entries, gb.Columns, batchCols)
	}
}

func TestDispatchRejectsUnknownTable(t *testing.T) {
	plan := twoGroupPlan()
	txns := []wal.Txn{
		{ID: 1, CommitTS: 10, Entries: []wal.Entry{entry(99, 1)}},
	}
	if _, err := NewBuffers().Dispatch(makeEncoded(t, txns), plan); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestDispatchRejectsBadFraming(t *testing.T) {
	plan := twoGroupPlan()
	// COMMIT without BEGIN.
	bad := wal.EncodeStream([]wal.Entry{{Type: wal.TypeCommit, TxnID: 1, Timestamp: 1}})
	_, err := NewBuffers().Dispatch(&epoch.Encoded{Buf: bad}, plan)
	if err == nil {
		t.Fatal("unframed COMMIT accepted")
	}
	// DML outside txn.
	bad = wal.EncodeStream([]wal.Entry{entryWithTxn(1, 1)})
	if _, err := NewBuffers().Dispatch(&epoch.Encoded{Buf: bad}, plan); err == nil {
		t.Fatal("unframed DML accepted")
	}
	// Stream ends inside txn.
	bad = wal.EncodeStream([]wal.Entry{{Type: wal.TypeBegin, TxnID: 1}})
	if _, err := NewBuffers().Dispatch(&epoch.Encoded{Buf: bad}, plan); err == nil {
		t.Fatal("dangling BEGIN accepted")
	}
}

func entryWithTxn(table wal.TableID, txn uint64) wal.Entry {
	e := entry(table, 1)
	e.TxnID = txn
	return e
}

func TestDispatchLargeEpochCommitOrderPreserved(t *testing.T) {
	plan := twoGroupPlan()
	rng := rand.New(rand.NewSource(5))
	var txns []wal.Txn
	for i := 1; i <= 500; i++ {
		txn := wal.Txn{ID: uint64(i), CommitTS: int64(i * 10)}
		for j := 0; j < 1+rng.Intn(4); j++ {
			txn.Entries = append(txn.Entries, entryWithTxnID(wal.TableID(1+rng.Intn(3)), uint64(i)))
		}
		txns = append(txns, txn)
	}
	res, err := NewBuffers().Dispatch(makeEncoded(t, txns), plan)
	if err != nil {
		t.Fatal(err)
	}
	for gi, gb := range res.PerGroup {
		if gb == nil {
			continue
		}
		for i := 1; i < len(gb.CommitOrder); i++ {
			if gb.CommitOrder[i] <= gb.CommitOrder[i-1] {
				t.Fatalf("group %d commit order not increasing at %d", gi, i)
			}
		}
		if len(gb.Pieces) != len(gb.CommitOrder) {
			t.Fatalf("group %d: %d pieces, %d commit slots", gi, len(gb.Pieces), len(gb.CommitOrder))
		}
	}
}

func entryWithTxnID(table wal.TableID, txn uint64) wal.Entry {
	e := entry(table, txn)
	e.TxnID = txn
	return e
}

// TestBuffersReuseMatchesFresh replays several distinct epochs through one
// recycled Buffers and checks every result matches a fresh single-use
// dispatch, including after a plan change resizes the group count.
func TestBuffersReuseMatchesFresh(t *testing.T) {
	plan := twoGroupPlan()
	single := grouping.SingleGroup([]wal.TableID{1, 2, 3})
	rng := rand.New(rand.NewSource(42))
	b := NewBuffers()
	for ep := 0; ep < 20; ep++ {
		p := plan
		if ep%5 == 4 {
			p = single // exercise reset across group-count changes
		}
		var txns []wal.Txn
		base := uint64(ep*100 + 1)
		for i := 0; i < 10+rng.Intn(10); i++ {
			id := base + uint64(i)
			txn := wal.Txn{ID: id, CommitTS: int64(id) * 10}
			for k := 0; k < 1+rng.Intn(4); k++ {
				txn.Entries = append(txn.Entries, entry(wal.TableID(1+rng.Intn(3)), rng.Uint64()%1000))
			}
			txns = append(txns, txn)
		}
		enc := makeEncoded(t, txns)

		got, err := b.Dispatch(enc, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewBuffers().Dispatch(enc, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Txns != want.Txns || got.Entries != want.Entries ||
			got.LastTxnID != want.LastTxnID || got.LastCommitTS != want.LastCommitTS {
			t.Fatalf("epoch %d: summary mismatch: %+v vs %+v", ep, got, want)
		}
		for gi := range want.PerGroup {
			wb, gb := want.PerGroup[gi], got.PerGroup[gi]
			if (wb == nil) != (gb == nil) {
				t.Fatalf("epoch %d group %d: touched mismatch", ep, gi)
			}
			if wb == nil {
				continue
			}
			if gb.Bytes != wb.Bytes || gb.Entries != wb.Entries || gb.Columns != wb.Columns ||
				len(gb.Pieces) != len(wb.Pieces) || len(gb.CommitOrder) != len(wb.CommitOrder) {
				t.Fatalf("epoch %d group %d: batch mismatch: %+v vs %+v", ep, gi, gb, wb)
			}
			for i := range wb.Pieces {
				if gb.CommitOrder[i] != wb.CommitOrder[i] {
					t.Fatalf("epoch %d group %d: commit order diverges at %d", ep, gi, i)
				}
				gp, wp := &gb.Pieces[i], &wb.Pieces[i]
				if gp.TxnID != wp.TxnID || gp.CommitTS != wp.CommitTS ||
					gp.Bytes != wp.Bytes || gp.Columns != wp.Columns || len(gp.Frames) != len(wp.Frames) {
					t.Fatalf("epoch %d group %d piece %d: %+v vs %+v", ep, gi, i, gp, wp)
				}
			}
		}
	}
}

// TestBuffersSteadyStateAllocs checks a warmed Buffers dispatches without
// allocating.
func TestBuffersSteadyStateAllocs(t *testing.T) {
	plan := twoGroupPlan()
	var txns []wal.Txn
	for i := 1; i <= 50; i++ {
		txns = append(txns, wal.Txn{ID: uint64(i), CommitTS: int64(i) * 10,
			Entries: []wal.Entry{entry(1, uint64(i)), entry(2, uint64(i)), entry(3, uint64(i))}})
	}
	enc := makeEncoded(t, txns)
	b := NewBuffers()
	if _, err := b.Dispatch(enc, plan); err != nil { // warm the backing arrays
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.Dispatch(enc, plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state dispatch allocates %.1f objects/epoch, want 0", allocs)
	}
}
