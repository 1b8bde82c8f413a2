package dispatch

import (
	"testing"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/primary"
	"aets/internal/wal"
	"aets/internal/workload"
)

// FuzzDecodeStream holds the two readers of an epoch's framing to one
// rule on arbitrary bytes: a transaction is named by its COMMIT, and its
// BEGIN and DML frames belong to it by position. When every frame is well
// formed on its own (full Decode accepts it), wal.DecodeStream and
// Dispatch — over a plan covering every table the bytes name — must agree
// on accept/reject; when one is not, DecodeStream must reject (dispatch
// reads headers only and leaves column values to replay's full decode).
// On accept, dispatch counts every transaction and DML entry, and each
// piece's TxnID, CommitTS and commit-order slot are those DecodeStream
// attributed to every frame of the piece.
func FuzzDecodeStream(f *testing.F) {
	enc := primary.New(workload.NewTPCC(1), 3).GenerateEncoded(6, 6)[0]
	f.Add(enc.Buf)
	f.Add([]byte{})
	begin := wal.Entry{Type: wal.TypeBegin}
	dml := entry(2, 1)
	commit := wal.Entry{Type: wal.TypeCommit, TxnID: 5, Timestamp: 50}
	for _, s := range [][]wal.Entry{
		{begin, dml, entry(1, 1), dml, commit, begin, commit},
		{dml, begin, commit},
		{commit},
		{begin, begin, commit},
		{begin, dml},
	} {
		f.Add(wal.EncodeStream(s))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		offset := map[int]int{} // frame offset → index in the decoded stream
		var tables []wal.TableID
		framesOK := true
		for rest := buf; len(rest) > 0; {
			e, n, err := wal.Decode(rest)
			if err != nil {
				framesOK = false
				break
			}
			offset[len(buf)-len(rest)] = len(offset)
			if e.Type.IsDML() {
				tables = append(tables, e.Table)
			}
			rest = rest[n:]
		}
		entries, derr := wal.DecodeStream(buf, 1)
		if !framesOK {
			if derr == nil {
				t.Fatal("DecodeStream accepted a malformed frame")
			}
			return
		}
		rates := map[wal.TableID]float64{} // first table hot: its own group, the rest one cold group
		if len(tables) > 0 {
			rates[tables[0]] = 1
		}
		plan := grouping.Build(rates, tables, grouping.Options{PerTable: true})
		res, perr := NewBuffers().Dispatch(&epoch.Encoded{Buf: buf}, plan)
		if (derr == nil) != (perr == nil) {
			t.Fatalf("DecodeStream err %v, Dispatch err %v", derr, perr)
		}
		if derr != nil {
			return
		}
		txns, dmls := 0, 0
		for _, e := range entries {
			switch {
			case e.Type == wal.TypeCommit:
				txns++
			case e.Type.IsDML():
				dmls++
			}
		}
		if res.Txns != txns || res.Entries != dmls {
			t.Fatalf("dispatch counted %d txns %d entries, stream holds %d/%d", res.Txns, res.Entries, txns, dmls)
		}
		for _, gb := range res.PerGroup {
			if gb == nil {
				continue
			}
			for i := range gb.Pieces {
				p := &gb.Pieces[i]
				if gb.CommitOrder[i] != p.TxnID {
					t.Fatalf("group %d slot %d: commit order %d, piece %d", gb.Group, i, gb.CommitOrder[i], p.TxnID)
				}
				for _, fr := range p.Frames {
					e := entries[offset[cap(buf)-cap(fr)]]
					if e.TxnID != p.TxnID || e.Timestamp != p.CommitTS {
						t.Fatalf("piece %d/%d holds a frame of txn %d/%d", p.TxnID, p.CommitTS, e.TxnID, e.Timestamp)
					}
				}
			}
		}
	})
}
