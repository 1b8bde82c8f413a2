package wal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genTxns builds a random valid transaction list with increasing IDs.
func genTxns(r *rand.Rand, n int) []Txn {
	txns := make([]Txn, n)
	id := uint64(0)
	ts := int64(0)
	for i := range txns {
		id += 1 + uint64(r.Intn(3))
		ts += 1 + r.Int63n(100)
		t := Txn{ID: id, CommitTS: ts}
		for j := 0; j < r.Intn(5); j++ {
			t.Entries = append(t.Entries, Entry{
				Type:   TypeUpdate,
				TxnID:  id,
				Table:  TableID(r.Intn(8) + 1),
				RowKey: r.Uint64(),
				Columns: []Column{
					{ID: uint32(j), Value: []byte{byte(j)}},
				},
			})
		}
		txns[i] = t
	}
	return txns
}

func TestFlattenAssembleRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		txns := genTxns(r, 1+r.Intn(20))
		flat := FlattenTxns(txns)
		back, err := AssembleTxns(flat)
		if err != nil || len(back) != len(txns) {
			return false
		}
		for i := range txns {
			if back[i].ID != txns[i].ID || back[i].CommitTS != txns[i].CommitTS ||
				len(back[i].Entries) != len(txns[i].Entries) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleRejectsNestedBegin(t *testing.T) {
	entries := []Entry{
		{Type: TypeBegin, TxnID: 1},
		{Type: TypeBegin, TxnID: 2},
	}
	if _, err := AssembleTxns(entries); err == nil {
		t.Fatal("nested BEGIN accepted")
	}
}

func TestAssembleRejectsUnmatchedCommit(t *testing.T) {
	if _, err := AssembleTxns([]Entry{{Type: TypeCommit, TxnID: 1}}); err == nil {
		t.Fatal("COMMIT without BEGIN accepted")
	}
}

func TestAssembleRejectsDanglingTxn(t *testing.T) {
	if _, err := AssembleTxns([]Entry{{Type: TypeBegin, TxnID: 1}}); err == nil {
		t.Fatal("stream ending inside a txn accepted")
	}
}

func TestAssembleRejectsForeignDML(t *testing.T) {
	entries := []Entry{
		{Type: TypeBegin, TxnID: 1},
		{Type: TypeUpdate, TxnID: 2, Columns: []Column{{ID: 1}}},
		{Type: TypeCommit, TxnID: 1},
	}
	if _, err := AssembleTxns(entries); err == nil {
		t.Fatal("DML from a different txn accepted inside frame")
	}
}

func TestStreamEncodeDecode(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	txns := genTxns(r, 50)
	flat := FlattenTxns(txns)
	buf := EncodeStream(flat)

	// DecodeStream numbers the entries densely from the LSN it is given.
	const first = 1000
	back, err := DecodeStream(buf, first)
	if err != nil || len(back) != len(flat) {
		t.Fatalf("DecodeStream: %v, %d entries, want %d", err, len(back), len(flat))
	}
	for i := range flat {
		if back[i].LSN != first+uint64(i) {
			t.Fatalf("entry %d: LSN %d, want %d", i, back[i].LSN, first+uint64(i))
		}
		back[i].LSN = 0
		if !entriesEqual(flat[i], back[i]) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}
