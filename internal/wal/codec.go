package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Binary layout of one encoded entry, in one of three shapes:
//
//	BEGIN   frameLen | type
//	DML     frameLen | type | tableID | rowKey | writeSeq | ncols | cols
//	COMMIT  frameLen | type | txnID | commitTS
//
//	frameLen  uvarint   length of everything after this field
//	type      uint8
//	tableID   uvarint
//	rowKey    uvarint
//	writeSeq  uvarint
//	ncols     uvarint
//	cols      ncols × (uvarint id, uvarint len, bytes value)
//	txnID     uvarint
//	commitTS  varint
//
// The frame length allows a reader to skip entries without decoding them.
// A transaction's identity is written once, on its COMMIT: its BEGIN and
// DML entries belong to it by position, between its BEGIN and its COMMIT.
// A single-frame decode of a BEGIN or DML entry therefore reports TxnID
// and Timestamp 0; DecodeStream fills both in from the COMMIT, and the
// stream readers (dispatch, the baselines) name a transaction when they
// reach its COMMIT.
// Entries only travel and rest inside an epoch buffer, so an entry carries
// neither an LSN nor a checksum: entry i's LSN is the epoch header's
// firstLSN+i (epoch.Encoded.FirstLSN), and the EPOCH frame is checked once
// per epoch — its CRC32-C on the wire and in the spool, and, for a
// compressed frame, a CRC32-C of the raw buffer after inflating
// (internal/ship).

// ErrCorrupt is returned when a frame fails its structural checks: a
// length past the buffer, a truncated field, an implausible column count
// or an entry that fails Validate.
var ErrCorrupt = errors.New("wal: corrupt log frame")

// errFrameLen is a frame whose length prefix is cut short, longer than ten
// bytes, overflows 64 bits or runs past the buffer. It carries no numbers
// so that payloadOf, which both decoders call once per entry, stays small
// enough to inline.
var errFrameLen = fmt.Errorf("%w: frame length exceeds buffer", ErrCorrupt)

// payloadOf returns the payload of the frame at the front of buf and the
// frame's total length. It accepts exactly the prefixes binary.Uvarint
// does; calling that would push it over the inlining budget.
func payloadOf(buf []byte) ([]byte, int, error) {
	var n uint64
	for k, b := range buf {
		if k == binary.MaxVarintLen64 {
			break
		}
		n |= uint64(b&0x7f) << (7 * k)
		if b < 0x80 {
			if k++; n > uint64(len(buf)-k) || k == binary.MaxVarintLen64 && b > 1 {
				break
			}
			return buf[k : k+int(n)], k + int(n), nil
		}
	}
	return nil, 0, errFrameLen
}

// AppendEncode appends the binary encoding of e to buf and returns the
// extended slice. It never fails for entries that pass Validate.
func AppendEncode(buf []byte, e *Entry) []byte {
	start := len(buf)
	buf = append(buf, 0, byte(e.Type)) // one frameLen byte holds a payload under 128
	switch {
	case e.Type == TypeCommit:
		buf = binary.AppendUvarint(buf, e.TxnID)
		buf = binary.AppendVarint(buf, e.Timestamp)
	case e.Type.IsDML():
		buf = binary.AppendUvarint(buf, uint64(e.Table))
		buf = binary.AppendUvarint(buf, e.RowKey)
		buf = binary.AppendUvarint(buf, e.WriteSeq)
		buf = binary.AppendUvarint(buf, uint64(len(e.Columns)))
		for _, c := range e.Columns {
			buf = binary.AppendUvarint(buf, uint64(c.ID))
			buf = binary.AppendUvarint(buf, uint64(len(c.Value)))
			buf = append(buf, c.Value...)
		}
	}

	n := len(buf) - start - 1
	if n < 0x80 {
		buf[start] = byte(n)
		return buf
	}
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	buf[start] = pre[0]
	return slices.Insert(buf, start+1, pre[1:k]...) // shift the payload behind the longer prefix
}

// Encode returns the binary encoding of e.
func Encode(e *Entry) []byte {
	return AppendEncode(nil, e)
}

// maxColumns bounds a frame's column count by its payload size: a column
// is at least two bytes on the wire (ID and length uvarints). Both the
// header scan, whose count sizes replay's column slab before any column is
// read, and the full decode reject anything above it.
func maxColumns(payloadLen int) uint64 { return uint64(payloadLen) / 2 }

// Decode decodes one entry from the front of buf, returning the entry and
// the number of bytes consumed. The entry owns its memory — a fresh
// Columns slice and a copy of every value — so it outlives buf.
//
// Decode and DecodeInto are one decode under two ownership rules. The
// serial reference, the baselines, checkpoints and tools keep entries
// after the buffer they came from is gone, so they pay an allocation per
// entry here; replay decodes every entry of every epoch and its versions
// pin the epoch buffer anyway (epoch.Encoded), so DecodeInto aliases it
// and allocates nothing.
func Decode(buf []byte) (Entry, int, error) {
	return decode(buf, nil, false)
}

// DecodeInto is the replay decode: it allocates nothing. The entry's
// Columns are the leading headers of window, which the caller carved for
// exactly the column counts DecodeHeader reported, and every Value is a
// sub-slice of buf. buf must therefore stay
// immutable for as long as the entry's columns are referenced (see
// epoch.Encoded for the contract replay's callers uphold). An entry with
// more columns than window holds is ErrCorrupt.
func DecodeInto(buf []byte, window []Column) (Entry, int, error) {
	return decode(buf, window, true)
}

func decode(buf []byte, window []Column, alias bool) (Entry, int, error) {
	var e Entry
	payload, size, err := payloadOf(buf)
	if err != nil {
		return e, 0, err
	}
	r := reader{buf: payload}
	e.Type = LogType(r.byte())
	switch {
	case e.Type == TypeCommit:
		e.TxnID = r.uvarint()
		e.Timestamp = r.varint()
	case e.Type.IsDML():
		e.Table = TableID(r.uvarint())
		e.RowKey = r.uvarint()
		e.WriteSeq = r.uvarint()
		ncols := r.uvarint()
		if ncols > maxColumns(len(payload)) {
			return e, 0, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, ncols)
		}
		switch {
		case ncols == 0:
		case !alias:
			e.Columns = make([]Column, ncols)
		case ncols > uint64(len(window)):
			return e, 0, fmt.Errorf("%w: %d columns, window holds %d", ErrCorrupt, ncols, len(window))
		default:
			e.Columns = window[:ncols:ncols]
		}
		for i := range e.Columns {
			id, n := uint32(r.uvarint()), int(r.uvarint())
			if alias {
				e.Columns[i] = Column{ID: id, Value: r.view(n)}
			} else {
				e.Columns[i] = Column{ID: id, Value: r.bytes(n)}
			}
		}
	}
	if r.err != nil {
		return Entry{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	if err := e.Validate(); err != nil {
		return Entry{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return e, size, nil
}

// reader is a bounds-checked little decoder over one payload.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.pos += n
	return v
}

// skipUvarints advances past n uvarints without decoding them: dispatch's
// header scan steps over two fields it does not route on, for every DML
// entry of every epoch. It does not police over-long encodings; the full
// decode of the same bytes does.
func (r *reader) skipUvarints(n int) {
	if r.err != nil {
		return
	}
	p := r.pos
	for ; n > 0; n-- {
		for p < len(r.buf) && r.buf[p] >= 0x80 {
			p++
		}
		p++
	}
	if p > len(r.buf) {
		r.fail("truncated uvarint")
		return
	}
	r.pos = p
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) bytes(n int) []byte {
	v := r.view(n)
	if v == nil {
		return nil
	}
	b := make([]byte, n)
	copy(b, v)
	return b
}

// view returns n bytes as a sub-slice of the frame, without copying.
func (r *reader) view(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail("truncated bytes")
		return nil
	}
	v := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return v
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}
