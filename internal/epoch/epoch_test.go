package epoch

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"aets/internal/wal"
)

func makeTxns(n int, entriesPer int) []wal.Txn {
	txns := make([]wal.Txn, n)
	for i := range txns {
		txns[i] = wal.Txn{ID: uint64(i + 1), CommitTS: int64((i + 1) * 10)}
		for j := 0; j < entriesPer; j++ {
			txns[i].Entries = append(txns[i].Entries, wal.Entry{
				Type: wal.TypeUpdate, TxnID: uint64(i + 1), Table: 1, RowKey: uint64(j + 1),
				Columns: []wal.Column{{ID: 1, Value: []byte{byte(j)}}},
			})
		}
	}
	return txns
}

func TestBatcherCutsOnSize(t *testing.T) {
	b := NewBatcher(4)
	var epochs []*Epoch
	for _, txn := range makeTxns(10, 1) {
		e, err := b.Add(txn)
		if err != nil {
			t.Fatal(err)
		}
		if e != nil {
			epochs = append(epochs, e)
		}
	}
	if e := b.Flush(); e != nil {
		epochs = append(epochs, e)
	}
	if len(epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(epochs))
	}
	if len(epochs[0].Txns) != 4 || len(epochs[1].Txns) != 4 || len(epochs[2].Txns) != 2 {
		t.Fatalf("epoch sizes: %d %d %d", len(epochs[0].Txns), len(epochs[1].Txns), len(epochs[2].Txns))
	}
	if epochs[0].Seq != 0 || epochs[1].Seq != 1 || epochs[2].Seq != 2 {
		t.Fatal("epoch sequence numbers not dense")
	}
}

func TestBatcherRejectsOutOfOrder(t *testing.T) {
	b := NewBatcher(10)
	if _, err := b.Add(wal.Txn{ID: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(wal.Txn{ID: 5}); err == nil {
		t.Fatal("duplicate txn ID accepted")
	}
	if _, err := b.Add(wal.Txn{ID: 3}); err == nil {
		t.Fatal("decreasing txn ID accepted")
	}
}

func TestSplitBoundariesQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		size := 1 + r.Intn(20)
		txns := makeTxns(n, 1)
		eps := MustSplit(txns, size)

		total := 0
		lastID := uint64(0)
		for i, e := range eps {
			if e.Validate() != nil {
				return false
			}
			if i < len(eps)-1 && len(e.Txns) != size {
				return false // only the last epoch may be short
			}
			for _, txn := range e.Txns {
				if txn.ID <= lastID {
					return false // IDs must increase across epochs too
				}
				lastID = txn.ID
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochAccessors(t *testing.T) {
	e := &Epoch{Seq: 7, Txns: makeTxns(5, 3)}
	if e.FirstTxnID() != 1 || e.LastTxnID() != 5 {
		t.Fatalf("ID range [%d,%d], want [1,5]", e.FirstTxnID(), e.LastTxnID())
	}
	if e.Entries() != 15 {
		t.Fatalf("Entries = %d, want 15", e.Entries())
	}
	var empty Epoch
	if empty.FirstTxnID() != 0 || empty.LastTxnID() != 0 {
		t.Fatal("empty epoch accessors must return 0")
	}
}

func TestValidateCatchesDisorder(t *testing.T) {
	e := &Epoch{Txns: []wal.Txn{{ID: 2, CommitTS: 20}, {ID: 1, CommitTS: 30}}}
	if e.Validate() == nil {
		t.Fatal("unordered txn IDs accepted")
	}
	e = &Epoch{Txns: []wal.Txn{{ID: 1, CommitTS: 30}, {ID: 2, CommitTS: 20}}}
	if e.Validate() == nil {
		t.Fatal("decreasing commit timestamps accepted")
	}
}

func TestEncodeDecodeEpoch(t *testing.T) {
	e := &Epoch{Seq: 3, Txns: makeTxns(20, 4)}
	enc, next := Encode(e, 1)
	if enc.TxnCount != 20 || enc.EntryCount != 80 {
		t.Fatalf("summary: %d txns %d entries", enc.TxnCount, enc.EntryCount)
	}
	// 20 txns × (BEGIN + 4 DML + COMMIT) = 120 frames.
	if next != 121 {
		t.Fatalf("next LSN = %d, want 121", next)
	}
	if enc.FirstTxnID != 1 || enc.LastTxnID != 20 || enc.LastCommitTS != 200 {
		t.Fatalf("summary fields: %+v", enc)
	}
	back, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 20 {
		t.Fatalf("decoded %d txns", len(back))
	}
	for i := range back {
		if back[i].ID != e.Txns[i].ID || back[i].CommitTS != e.Txns[i].CommitTS ||
			len(back[i].Entries) != len(e.Txns[i].Entries) {
			t.Fatalf("txn %d mismatch", i)
		}
	}
}

func TestEncodeAllSharesLSNSpace(t *testing.T) {
	eps := MustSplit(makeTxns(10, 2), 4)
	encs := EncodeAll(eps)
	if len(encs) != 3 {
		t.Fatalf("got %d encoded epochs", len(encs))
	}
	var lastLSN uint64
	for _, enc := range encs {
		if enc.FirstLSN != lastLSN+1 {
			t.Fatalf("epoch %d starts at LSN %d after %d", enc.Seq, enc.FirstLSN, lastLSN)
		}
		entries, err := wal.DecodeStream(enc.Buf, enc.FirstLSN)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.LSN != lastLSN+1 {
				t.Fatalf("LSN gap: %d after %d", e.LSN, lastLSN)
			}
			lastLSN = e.LSN
		}
	}
}

// Validate checks the epoch-level ordering invariants: transaction IDs are
// strictly increasing and commit timestamps are non-decreasing.
func (e *Epoch) Validate() error {
	for i := 1; i < len(e.Txns); i++ {
		if e.Txns[i].ID <= e.Txns[i-1].ID {
			return fmt.Errorf("epoch %d: txn IDs not strictly increasing at index %d (%d after %d)",
				e.Seq, i, e.Txns[i].ID, e.Txns[i-1].ID)
		}
		if e.Txns[i].CommitTS < e.Txns[i-1].CommitTS {
			return fmt.Errorf("epoch %d: commit timestamps decrease at index %d", e.Seq, i)
		}
	}
	return nil
}
