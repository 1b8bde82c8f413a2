package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary layout of one encoded entry:
//
//	frameLen  uint32   length of everything after this field
//	crc32     uint32   IEEE CRC of the payload (all following bytes)
//	type      uint8
//	lsn       uvarint
//	txnID     uvarint
//	timestamp varint
//	tableID   uvarint   (DML only)
//	rowKey    uvarint   (DML only)
//	prevTxn   uvarint   (DML only)
//	writeSeq  uvarint   (DML only)
//	ncols     uvarint   (DML only)
//	cols      ncols × (uvarint id, uvarint len, bytes value)
//
// The frame length allows a reader to skip entries without decoding them;
// the CRC guards against torn or corrupted replication frames.

// ErrCorrupt is returned when a frame fails its CRC or structural checks.
var ErrCorrupt = errors.New("wal: corrupt log frame")

// AppendEncode appends the binary encoding of e to buf and returns the
// extended slice. It never fails for entries that pass Validate.
func AppendEncode(buf []byte, e *Entry) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // frameLen placeholder
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	payloadStart := len(buf)

	buf = append(buf, byte(e.Type))
	buf = binary.AppendUvarint(buf, e.LSN)
	buf = binary.AppendUvarint(buf, e.TxnID)
	buf = binary.AppendVarint(buf, e.Timestamp)
	if e.Type.IsDML() {
		buf = binary.AppendUvarint(buf, uint64(e.Table))
		buf = binary.AppendUvarint(buf, e.RowKey)
		buf = binary.AppendUvarint(buf, e.PrevTxn)
		buf = binary.AppendUvarint(buf, e.WriteSeq)
		buf = binary.AppendUvarint(buf, uint64(len(e.Columns)))
		for _, c := range e.Columns {
			buf = binary.AppendUvarint(buf, uint64(c.ID))
			buf = binary.AppendUvarint(buf, uint64(len(c.Value)))
			buf = append(buf, c.Value...)
		}
	}

	payload := buf[payloadStart:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)+4))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// Encode returns the binary encoding of e.
func Encode(e *Entry) []byte {
	return AppendEncode(nil, e)
}

// maxColumns bounds a frame's column count by its payload size: a column
// is at least two bytes on the wire (ID and length uvarints). Both the
// header scan, which runs before the CRC check and whose count sizes
// replay's column slab, and the full decode reject anything above it.
func maxColumns(payloadLen int) uint64 { return uint64(payloadLen) / 2 }

// Decode decodes one entry from the front of buf, returning the entry and
// the number of bytes consumed. The entry owns its memory — a fresh
// Columns slice and a copy of every value — so it outlives buf. It is the
// decode of the serial reference, the baselines, checkpoints and tools;
// replay uses DecodeInto.
func Decode(buf []byte) (Entry, int, error) {
	return decode(buf, nil, false)
}

// DecodeInto is the replay decode: it allocates nothing. The entry's
// Columns are the leading headers of window, which the caller carved for
// exactly the column counts DecodeHeader reported, and every Value is a
// sub-slice of buf, taken after the CRC check. buf must therefore stay
// immutable for as long as the entry's columns are referenced (see
// epoch.Encoded for the contract replay's callers uphold). An entry with
// more columns than window holds is ErrCorrupt.
func DecodeInto(buf []byte, window []Column) (Entry, int, error) {
	return decode(buf, window, true)
}

func decode(buf []byte, window []Column, alias bool) (Entry, int, error) {
	var e Entry
	if len(buf) < 8 {
		return e, 0, fmt.Errorf("%w: short frame header (%d bytes)", ErrCorrupt, len(buf))
	}
	frameLen := binary.LittleEndian.Uint32(buf)
	if int(frameLen) < 4 || len(buf) < 4+int(frameLen) {
		return e, 0, fmt.Errorf("%w: frame length %d exceeds buffer %d", ErrCorrupt, frameLen, len(buf))
	}
	want := binary.LittleEndian.Uint32(buf[4:])
	payload := buf[8 : 4+frameLen]
	if crc32.ChecksumIEEE(payload) != want {
		return e, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}

	r := reader{buf: payload}
	e.Type = LogType(r.byte())
	e.LSN = r.uvarint()
	e.TxnID = r.uvarint()
	e.Timestamp = r.varint()
	if e.Type.IsDML() {
		e.Table = TableID(r.uvarint())
		e.RowKey = r.uvarint()
		e.PrevTxn = r.uvarint()
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
	return e, 4 + int(frameLen), nil
}

// Writer streams encoded entries to an io.Writer, buffering internally.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer emitting frames to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 64<<10)}
}

// Append encodes e into the internal buffer. Call Flush to push buffered
// frames to the underlying writer.
func (w *Writer) Append(e *Entry) {
	w.buf = AppendEncode(w.buf, e)
	// Opportunistic flush keeps the buffer bounded without forcing a
	// syscall-per-entry pattern on file-backed writers.
	if len(w.buf) >= 60<<10 {
		_ = w.Flush()
	}
}

// Flush writes all buffered frames to the underlying writer.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Reader decodes a stream of frames produced by Writer.
type Reader struct {
	r   io.Reader
	buf []byte
	off int
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next returns the next entry in the stream, or io.EOF when the stream is
// exhausted on a clean frame boundary.
func (r *Reader) Next() (Entry, error) {
	for {
		if e, n, err := Decode(r.buf[r.off:]); err == nil {
			r.off += n
			return e, nil
		}
		// Need more bytes: compact and refill.
		if r.off > 0 {
			r.buf = append(r.buf[:0], r.buf[r.off:]...)
			r.off = 0
		}
		chunk := make([]byte, 32<<10)
		n, err := r.r.Read(chunk)
		r.buf = append(r.buf, chunk[:n]...)
		if n == 0 && err != nil {
			if err == io.EOF && len(r.buf) == 0 {
				return Entry{}, io.EOF
			}
			if err == io.EOF {
				return Entry{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf))
			}
			return Entry{}, err
		}
	}
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
// header scan steps over three fields it does not route on, for every DML
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
