package wal

import "fmt"

// Header is the metadata prefix of an entry: everything the AETS and ATR
// dispatchers need for routing (type, the COMMIT's txn ID and commit
// timestamp, table) plus the DML column count, from which replay sizes
// its column slab before any frame is decoded. Decoding only the header
// skips the column values — their IDs, lengths and bytes — which is
// exactly the cost asymmetry the paper describes between metadata-only
// dispatch (AETS, ATR) and C5's full data-image parse (§VI-A5).
type Header struct {
	Type      LogType
	TxnID     uint64
	Timestamp int64
	Table     TableID
	Columns   int
}

// DecodeHeader decodes the header of the frame at the front of buf and
// returns it together with the total frame length, so callers can either
// skip the frame or hand the slice to Decode for the full entry. TxnID and
// Timestamp are a COMMIT's own; BEGIN and DML headers report 0 for both.
func DecodeHeader(buf []byte) (Header, int, error) {
	var h Header
	payload, size, err := payloadOf(buf)
	if err != nil {
		return h, 0, err
	}
	r := reader{buf: payload}
	h.Type = LogType(r.byte())
	switch {
	case h.Type == TypeCommit:
		h.TxnID = r.uvarint()
		h.Timestamp = r.varint()
	case h.Type.IsDML():
		h.Table = TableID(r.uvarint())
		r.skipUvarints(2) // RowKey, WriteSeq
		ncols := r.uvarint()
		// About to size an allocation before any column is read.
		if ncols > maxColumns(len(r.buf)) {
			return Header{}, 0, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, ncols)
		}
		h.Columns = int(ncols)
	}
	if r.err != nil {
		return Header{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	return h, size, nil
}

// EncodeStream encodes a flat entry stream into one contiguous buffer, the
// replication wire format of an epoch payload.
func EncodeStream(entries []Entry) []byte {
	var buf []byte
	for i := range entries {
		buf = AppendEncode(buf, &entries[i])
	}
	return buf
}

// DecodeStream decodes a full buffer of frames back into entries, numbering
// them with LSNs from firstLSN and attributing them by position: each BEGIN
// and DML entry takes TxnID and Timestamp from the COMMIT that closes its
// transaction. A stream that breaks the BEGIN/DML*/COMMIT framing — DML or
// COMMIT outside a transaction, BEGIN inside one, or an end inside one — is
// ErrCorrupt, as it is to every dispatcher.
func DecodeStream(buf []byte, firstLSN uint64) ([]Entry, error) {
	var out []Entry
	open := -1 // index of the open transaction's BEGIN
	for len(buf) > 0 {
		e, n, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		switch {
		case e.Type == TypeBegin && open >= 0:
			return nil, fmt.Errorf("%w: BEGIN at LSN %d inside an open txn", ErrCorrupt, firstLSN+uint64(len(out)))
		case e.Type == TypeBegin:
			open = len(out)
		case open < 0:
			return nil, fmt.Errorf("%w: %s at LSN %d outside a txn", ErrCorrupt, e.Type, firstLSN+uint64(len(out)))
		case e.Type == TypeCommit:
			for i := open; i < len(out); i++ {
				out[i].TxnID, out[i].Timestamp = e.TxnID, e.Timestamp
			}
			open = -1
		}
		e.LSN = firstLSN + uint64(len(out))
		out = append(out, e)
		buf = buf[n:]
	}
	if open >= 0 {
		return nil, fmt.Errorf("%w: stream ends inside an open txn", ErrCorrupt)
	}
	return out, nil
}
