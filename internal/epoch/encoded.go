package epoch

import "aets/internal/wal"

// Encoded is the wire form of an epoch: the transactions' entries with
// BEGIN/COMMIT framing, flattened and encoded into one buffer. This is what
// the primary replicates and what every replayer consumes — forcing each
// replayer to pay its own, algorithm-specific parsing cost, as in the
// paper's experimental setup.
//
// Ownership of Buf: a fed epoch's Buf is immutable from Feed on, and it
// lives as long as any version decoded from it. AETS replay does not copy
// log values — every column value it installs in the Memtable is a
// sub-slice of Buf — so whoever feeds an epoch gives Buf up: never write
// to it, never recycle it for the next frame. Lifetime needs no
// cooperation: the version chains reference the buffer and the collector
// keeps it until Vacuum has unlinked the last of them. Every ingest path
// hands over a fresh allocation per epoch (ship.ReadFrameFlags, the
// inflate in ship.DecodeEpochFrame, spool replay, Encode below).
type Encoded struct {
	Seq uint64
	Buf []byte

	// Summary fields, available without parsing. FirstLSN is the LSN of
	// Buf's first entry; entry i's is FirstLSN+i.
	FirstLSN     uint64
	TxnCount     int
	EntryCount   int // DML entries only
	FirstTxnID   uint64
	LastTxnID    uint64
	LastCommitTS int64
}

// Encode serialises an epoch into its wire form. firstLSN is the LSN of its
// first entry; the next unused LSN is returned so consecutive epochs share
// one LSN space.
func Encode(e *Epoch, firstLSN uint64) (Encoded, uint64) {
	entries := wal.FlattenTxns(e.Txns)
	enc := Encoded{
		Seq:        e.Seq,
		Buf:        wal.EncodeStream(entries),
		FirstLSN:   firstLSN,
		TxnCount:   len(e.Txns),
		EntryCount: e.Entries(),
		FirstTxnID: e.FirstTxnID(),
		LastTxnID:  e.LastTxnID(),
	}
	if n := len(e.Txns); n > 0 {
		enc.LastCommitTS = e.Txns[n-1].CommitTS
	}
	return enc, firstLSN + uint64(len(entries))
}

// EncodeAll encodes a sequence of epochs with a shared LSN space.
func EncodeAll(eps []*Epoch) []Encoded {
	out := make([]Encoded, len(eps))
	lsn := uint64(1)
	for i, e := range eps {
		out[i], lsn = Encode(e, lsn)
	}
	return out
}

// Decode parses the wire form back into transactions, their entries
// numbered from FirstLSN. Used by tests and tools that need the full image.
func (enc *Encoded) Decode() ([]wal.Txn, error) {
	entries, err := wal.DecodeStream(enc.Buf, enc.FirstLSN)
	if err != nil {
		return nil, err
	}
	return wal.AssembleTxns(entries)
}
