package wal

import (
	"encoding/binary"
	"fmt"
)

// Header is the metadata prefix of an entry: everything the AETS and ATR
// dispatchers need for routing (type, txn framing, table) plus the DML
// column count, from which replay sizes its column slab before any frame
// is decoded. Decoding only the header skips the CRC pass and the column
// values, which is exactly the cost asymmetry the paper describes between
// metadata-only dispatch (AETS, ATR) and C5's full data-image parse
// (§VI-A5).
type Header struct {
	Type      LogType
	LSN       uint64
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
	if len(buf) < 8 {
		return h, 0, fmt.Errorf("%w: short frame header (%d bytes)", ErrCorrupt, len(buf))
	}
	frameLen := binary.LittleEndian.Uint32(buf)
	if int(frameLen) < 4 || len(buf) < 4+int(frameLen) {
		return h, 0, fmt.Errorf("%w: frame length %d exceeds buffer %d", ErrCorrupt, frameLen, len(buf))
	}
	r := reader{buf: buf[8 : 4+frameLen]}
	h.Type = LogType(r.byte())
	h.LSN = r.uvarint()
	h.TxnID = r.uvarint()
	h.Timestamp = r.varint()
	if h.Type.IsDML() {
		h.Table = TableID(r.uvarint())
		r.skipUvarints(3) // RowKey, PrevTxn, WriteSeq
		ncols := r.uvarint()
		// Not yet CRC-checked, and about to size an allocation.
		if ncols > maxColumns(len(r.buf)) {
			return Header{}, 0, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, ncols)
		}
		h.Columns = int(ncols)
	}
	if r.err != nil {
		return Header{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	return h, 4 + int(frameLen), nil
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

// DecodeStream decodes a full buffer of frames back into entries.
func DecodeStream(buf []byte) ([]Entry, error) {
	var out []Entry
	for len(buf) > 0 {
		e, n, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		buf = buf[n:]
	}
	return out, nil
}

// CountFrames returns the number of frames in buf using header-only scans.
func CountFrames(buf []byte) (int, error) {
	n := 0
	for len(buf) > 0 {
		_, sz, err := DecodeHeader(buf)
		if err != nil {
			return n, err
		}
		buf = buf[sz:]
		n++
	}
	return n, nil
}
