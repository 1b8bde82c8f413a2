package baselines

import (
	"testing"
	"time"

	"aets/internal/dispatch"
	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// TestFramingErrorsRejected: BEGIN and DML entries carry no txn ID, so a
// transaction is its frames' position between BEGIN and COMMIT, and a
// stream that breaks that framing can no longer be caught by comparing
// IDs. Each of the four breaks — after one well-formed transaction, so
// the reader has already handed work on — must be rejected by every
// reader of the stream: the wal decoder, AETS's dispatcher, ATR and C5.
func TestFramingErrorsRejected(t *testing.T) {
	begin := wal.Entry{Type: wal.TypeBegin}
	dml := wal.Entry{Type: wal.TypeUpdate, Table: 1, RowKey: 1, Columns: []wal.Column{{ID: 1, Value: []byte("v")}}}
	commit := func(id uint64) wal.Entry {
		return wal.Entry{Type: wal.TypeCommit, TxnID: id, Timestamp: int64(10 * id)}
	}
	cases := map[string][]wal.Entry{
		"DML before BEGIN":     {dml, begin, dml, commit(2)},
		"COMMIT without BEGIN": {commit(2)},
		"BEGIN inside a txn":   {begin, dml, begin, dml, commit(2)},
		"epoch ends in a txn":  {begin, dml},
	}
	plan := grouping.SingleGroup([]wal.TableID{1})
	for name, tail := range cases {
		entries := append([]wal.Entry{begin, dml, commit(1)}, tail...)
		enc := &epoch.Encoded{Buf: wal.EncodeStream(entries), FirstLSN: 1, TxnCount: 2, EntryCount: 2, LastTxnID: 2, LastCommitTS: 20}
		if _, err := wal.DecodeStream(enc.Buf, enc.FirstLSN); err == nil {
			t.Errorf("%s: wal.DecodeStream accepted it", name)
		}
		if _, err := dispatch.NewBuffers().Dispatch(enc, plan); err == nil {
			t.Errorf("%s: dispatch accepted it", name)
		}
		for _, r := range []replayerUnderTest{NewATR(memtable.New(), 2), NewC5(memtable.New(), 2, time.Millisecond)} {
			r.Start()
			if err := r.Feed(enc); err != nil {
				t.Fatal(err)
			}
			r.Drain()
			if r.Err() == nil {
				t.Errorf("%s: %s accepted it", name, r.Name())
			}
			r.Stop()
		}
	}
}
