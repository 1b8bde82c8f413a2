package epoch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"aets/internal/wal"
)

// TestEncodedRoundTripQuick: encode→decode of random epochs preserves the
// transactions exactly, the summary fields agree with the content, and
// Decode numbers every entry from FirstLSN by its position in the stream
// (BEGIN and COMMIT take an LSN each).
func TestEncodedRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		txns := make([]wal.Txn, n)
		ts := int64(0)
		for i := range txns {
			ts += 1 + r.Int63n(20)
			txns[i] = wal.Txn{ID: uint64(i + 1), CommitTS: ts}
			for j := 0; j < r.Intn(5); j++ {
				e := wal.Entry{
					Type: wal.TypeUpdate, TxnID: uint64(i + 1), Timestamp: ts,
					Table: wal.TableID(1 + r.Intn(5)), RowKey: r.Uint64() % 1000,
					WriteSeq: r.Uint64() % 100,
					Columns:  []wal.Column{{ID: 1, Value: []byte{byte(j)}}},
				}
				txns[i].Entries = append(txns[i].Entries, e)
			}
		}
		ep := &Epoch{Seq: uint64(r.Intn(100)), Txns: txns}
		first := r.Uint64() >> 1
		enc, next := Encode(ep, first)
		if enc.TxnCount != n || enc.FirstTxnID != 1 || enc.LastTxnID != uint64(n) ||
			enc.LastCommitTS != ts || enc.EntryCount != ep.Entries() ||
			enc.FirstLSN != first || next != first+uint64(2*n+ep.Entries()) {
			return false
		}
		back, err := enc.Decode()
		if err != nil || len(back) != n {
			return false
		}
		lsn := first
		for i := range back {
			if back[i].ID != txns[i].ID || back[i].CommitTS != txns[i].CommitTS ||
				len(back[i].Entries) != len(txns[i].Entries) {
				return false
			}
			lsn++ // BEGIN
			for j := range back[i].Entries {
				a, b := back[i].Entries[j], txns[i].Entries[j]
				if a.Table != b.Table || a.RowKey != b.RowKey || a.WriteSeq != b.WriteSeq || a.LSN != lsn {
					return false
				}
				lsn++
			}
			lsn++ // COMMIT
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeEmptyEpoch(t *testing.T) {
	enc, next := Encode(&Epoch{Seq: 3}, 7)
	if next != 7 || enc.FirstLSN != 7 || len(enc.Buf) != 0 || enc.TxnCount != 0 {
		t.Fatalf("empty epoch: %+v next=%d", enc, next)
	}
	txns, err := enc.Decode()
	if err != nil || len(txns) != 0 {
		t.Fatalf("decode empty: %v %v", txns, err)
	}
}

// TestEntriesCarryNoTxnFields: a transaction's ID and commit timestamp are
// written once, on its COMMIT. A single-frame decode of a BEGIN or DML
// entry — full, aliasing or header-only — reports 0 for both, and Decode
// attributes them by position: it returns the original transactions with
// every entry's TxnID, Timestamp and LSN (counted from a random firstLSN)
// filled in.
func TestEntriesCarryNoTxnFields(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	txns := make([]wal.Txn, 40)
	for i := range txns {
		id, ts := uint64(100+3*i), int64(1000+7*i)
		txns[i] = wal.Txn{ID: id, CommitTS: ts}
		for j := 0; j < r.Intn(4); j++ {
			e := wal.Entry{Type: wal.TypeDelete, TxnID: id, Timestamp: ts,
				Table: wal.TableID(1 + r.Intn(5)), RowKey: r.Uint64() % 1000, WriteSeq: r.Uint64() % 9}
			if j%2 == 0 {
				e.Type, e.Columns = wal.TypeUpdate, []wal.Column{{ID: uint32(j), Value: []byte{byte(i)}}}
			}
			txns[i].Entries = append(txns[i].Entries, e)
		}
	}
	first := r.Uint64() >> 1
	enc, _ := Encode(&Epoch{Txns: txns}, first)

	for buf := enc.Buf; len(buf) > 0; {
		h, n, err := wal.DecodeHeader(buf)
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := wal.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := wal.DecodeInto(buf, make([]wal.Column, h.Columns))
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != wal.TypeCommit && (h.TxnID|uint64(h.Timestamp)|e.TxnID|uint64(e.Timestamp)|a.TxnID|uint64(a.Timestamp)) != 0 {
			t.Fatalf("%s frame carries a txn: header %d/%d, Decode %d/%d, DecodeInto %d/%d",
				h.Type, h.TxnID, h.Timestamp, e.TxnID, e.Timestamp, a.TxnID, a.Timestamp)
		}
		buf = buf[n:]
	}

	back, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	lsn := first
	for i := range txns {
		lsn++ // BEGIN
		for j := range txns[i].Entries {
			txns[i].Entries[j].LSN = lsn
			lsn++
		}
		lsn++ // COMMIT
	}
	if !reflect.DeepEqual(back, txns) {
		t.Fatalf("Decode did not return the original txns:\n got %+v\nwant %+v", back, txns)
	}
}
