package wal

import "fmt"

// Header is the metadata prefix of an entry: everything the AETS and ATR
// dispatchers need for routing (type, txn framing, table) plus the DML
// column count, from which replay sizes its column slab before any frame
// is decoded. Decoding only the header skips the column values — their
// IDs, lengths and bytes — which is exactly the cost asymmetry the paper
// describes between metadata-only dispatch (AETS, ATR) and C5's full
// data-image parse (§VI-A5).
type Header struct {
	Type      LogType
	TxnID     uint64
	Timestamp int64
	Table     TableID
	Columns   int
}

// DecodeHeader decodes the header of the frame at the front of buf and
// returns it together with the total frame length, so callers can either
// skip the frame or hand the slice to Decode for the full entry.
func DecodeHeader(buf []byte) (Header, int, error) {
	var h Header
	payload, size, err := payloadOf(buf)
	if err != nil {
		return h, 0, err
	}
	r := reader{buf: payload}
	h.Type = LogType(r.byte())
	h.TxnID = r.uvarint()
	h.Timestamp = r.varint()
	if h.Type.IsDML() {
		h.Table = TableID(r.uvarint())
		r.skipUvarints(3) // RowKey, PrevTxn, WriteSeq
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
// them with LSNs from firstLSN.
func DecodeStream(buf []byte, firstLSN uint64) ([]Entry, error) {
	var out []Entry
	for len(buf) > 0 {
		e, n, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		e.LSN = firstLSN + uint64(len(out))
		out = append(out, e)
		buf = buf[n:]
	}
	return out, nil
}
