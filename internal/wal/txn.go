package wal

import "fmt"

// Txn is the decoded view of one committed transaction: the entries between
// its BEGIN and COMMIT frames, in log order. CommitTS is the timestamp of
// the COMMIT entry, which on the primary is assigned in TxnID order, so
// sorting by TxnID and by CommitTS is equivalent.
type Txn struct {
	ID       uint64
	CommitTS int64
	Entries  []Entry // DML entries only; framing entries are stripped
}

// AssembleTxns groups a flat, log-ordered entry stream into transactions.
// It enforces the framing protocol: every transaction must open with BEGIN,
// carry zero or more DML entries, and close with COMMIT; transactions may
// not interleave in the replicated stream (the primary serialises them in
// commit order before shipping).
func AssembleTxns(entries []Entry) ([]Txn, error) {
	var txns []Txn
	var cur *Txn
	for i := range entries {
		e := &entries[i]
		switch e.Type {
		case TypeBegin:
			if cur != nil {
				return nil, fmt.Errorf("wal: BEGIN of txn %d inside open txn %d", e.TxnID, cur.ID)
			}
			txns = append(txns, Txn{ID: e.TxnID})
			cur = &txns[len(txns)-1]
		case TypeCommit:
			if cur == nil || cur.ID != e.TxnID {
				return nil, fmt.Errorf("wal: COMMIT of txn %d without matching BEGIN", e.TxnID)
			}
			cur.CommitTS = e.Timestamp
			cur = nil
		case TypeInsert, TypeUpdate, TypeDelete:
			if cur == nil || cur.ID != e.TxnID {
				return nil, fmt.Errorf("wal: DML of txn %d outside its BEGIN/COMMIT frame", e.TxnID)
			}
			cur.Entries = append(cur.Entries, *e)
		default:
			return nil, fmt.Errorf("wal: invalid entry type %d at index %d", e.Type, i)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("wal: stream ends inside open txn %d", cur.ID)
	}
	return txns, nil
}

// FlattenTxns is the inverse of AssembleTxns: it re-frames transactions into
// a flat entry stream with BEGIN/COMMIT markers, every entry carrying its
// transaction's ID and commit timestamp as DecodeStream attributes them.
func FlattenTxns(txns []Txn) []Entry {
	var out []Entry
	for i := range txns {
		t := &txns[i]
		out = append(out, Entry{Type: TypeBegin, TxnID: t.ID, Timestamp: t.CommitTS})
		for j := range t.Entries {
			e := t.Entries[j]
			e.TxnID, e.Timestamp = t.ID, t.CommitTS
			out = append(out, e)
		}
		out = append(out, Entry{Type: TypeCommit, TxnID: t.ID, Timestamp: t.CommitTS})
	}
	return out
}
