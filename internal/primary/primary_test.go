package primary

import (
	"math/rand"
	"testing"

	"aets/internal/wal"
	"aets/internal/workload"
)

func TestTxnIDsAndTimestampsMonotone(t *testing.T) {
	p := New(workload.NewTPCC(1), 1)
	var lastID uint64
	var lastTS int64
	for i := 0; i < 500; i++ {
		txn := p.NextTxn()
		if txn.ID <= lastID {
			t.Fatalf("txn ID %d after %d", txn.ID, lastID)
		}
		if txn.CommitTS <= lastTS {
			t.Fatalf("commit TS %d after %d", txn.CommitTS, lastTS)
		}
		lastID, lastTS = txn.ID, txn.CommitTS
		if p.LastCommitTS() != lastTS {
			t.Fatal("LastCommitTS out of sync")
		}
	}
}

// twiceGen writes one hot row twice in every transaction, plus one row
// drawn from a small key space, so rows see repeat writers both within a
// transaction and across transactions.
type twiceGen struct{}

func (twiceGen) Name() string { return "twice" }
func (twiceGen) Tables() []workload.TableMeta {
	return []workload.TableMeta{{ID: 1, Rows: 8}, {ID: 2, Rows: 8}}
}
func (twiceGen) Queries() []workload.Query { return nil }
func (twiceGen) NextTxn(rng *rand.Rand, dst []workload.Write) []workload.Write {
	cols := []wal.Column{{ID: 1, Value: []byte{1}}}
	return append(dst,
		workload.Write{Table: 1, Key: 7, Op: wal.TypeUpdate, Cols: cols},
		workload.Write{Table: 2, Key: 1 + uint64(rng.Intn(8)), Op: wal.TypeUpdate, Cols: cols},
		workload.Write{Table: 1, Key: 7, Op: wal.TypeUpdate, Cols: cols},
	)
}

// TestWriteSeqCountsPriorWrites: an entry's WriteSeq — ATR's before-image
// witness — is the number of writes its row received before it, counting
// an earlier write by the same transaction, on TPC-C and on a generator
// that writes one row twice per transaction.
func TestWriteSeqCountsPriorWrites(t *testing.T) {
	for _, gen := range []workload.Generator{workload.NewTPCC(1), twiceGen{}} {
		p := New(gen, 2)
		writes := make(map[[2]uint64]uint64)
		for i := 0; i < 2000; i++ {
			txn := p.NextTxn()
			for _, e := range txn.Entries {
				key := [2]uint64{uint64(e.Table), e.RowKey}
				if e.WriteSeq != writes[key] {
					t.Fatalf("%s txn %d table %d row %d: WriteSeq %d, want %d",
						gen.Name(), txn.ID, e.Table, e.RowKey, e.WriteSeq, writes[key])
				}
				writes[key]++
			}
		}
		if gen.Name() == "twice" && writes[[2]uint64{1, 7}] != 4000 {
			t.Fatalf("hot row counted %d writes, want 4000", writes[[2]uint64{1, 7}])
		}
	}
}

func TestEntriesCarryTxnMetadata(t *testing.T) {
	p := New(workload.NewSEATS(), 3)
	for i := 0; i < 100; i++ {
		txn := p.NextTxn()
		for _, e := range txn.Entries {
			if e.TxnID != txn.ID || e.Timestamp != txn.CommitTS {
				t.Fatalf("entry metadata mismatch: %+v vs txn %d/%d", e, txn.ID, txn.CommitTS)
			}
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGenerateEncodedRoundTrips(t *testing.T) {
	p := New(workload.NewTPCC(1), 4)
	encs := p.GenerateEncoded(500, 128)
	if len(encs) != 4 {
		t.Fatalf("%d epochs, want 4 (500/128)", len(encs))
	}
	total := 0
	var lastID uint64
	for _, enc := range encs {
		txns, err := enc.Decode()
		if err != nil {
			t.Fatal(err)
		}
		total += len(txns)
		for _, txn := range txns {
			if txn.ID <= lastID {
				t.Fatalf("ID order broken across epochs: %d after %d", txn.ID, lastID)
			}
			lastID = txn.ID
		}
	}
	if total != 500 {
		t.Fatalf("decoded %d txns, want 500", total)
	}
}

func TestDeterministicForSameSeed(t *testing.T) {
	a := New(workload.NewTPCC(1), 7).GenerateTxns(200)
	b := New(workload.NewTPCC(1), 7).GenerateTxns(200)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].ID != b[i].ID || len(a[i].Entries) != len(b[i].Entries) {
			t.Fatalf("txn %d differs between same-seed runs", i)
		}
		for j := range a[i].Entries {
			ea, eb := a[i].Entries[j], b[i].Entries[j]
			if ea.Table != eb.Table || ea.RowKey != eb.RowKey || ea.WriteSeq != eb.WriteSeq {
				t.Fatalf("entry %d/%d differs between same-seed runs", i, j)
			}
		}
	}
}

func TestCustomClock(t *testing.T) {
	p := New(workload.NewTPCC(1), 9)
	now := int64(1_000_000)
	p.Clock = func() int64 { now += 500; return now }
	a := p.NextTxn()
	b := p.NextTxn()
	if b.CommitTS-a.CommitTS != 500 {
		t.Fatalf("custom clock ignored: %d %d", a.CommitTS, b.CommitTS)
	}
	_ = wal.Txn{} // keep wal import for the entry assertions above
}
