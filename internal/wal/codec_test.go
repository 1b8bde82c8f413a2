package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genEntry builds a random valid entry as a single frame carries it: a
// COMMIT with its txn ID and commit timestamp, a BEGIN or DML entry
// without either.
func genEntry(r *rand.Rand) Entry {
	types := []LogType{TypeBegin, TypeCommit, TypeInsert, TypeUpdate, TypeDelete}
	e := Entry{Type: types[r.Intn(len(types))]}
	if e.Type == TypeCommit {
		e.TxnID, e.Timestamp = r.Uint64(), r.Int63()
	}
	if e.Type.IsDML() {
		e.Table = TableID(r.Uint32())
		e.RowKey = r.Uint64()
		e.WriteSeq = r.Uint64()
		if e.Type != TypeDelete {
			n := 1 + r.Intn(6)
			e.Columns = make([]Column, n)
			for i := range e.Columns {
				v := make([]byte, r.Intn(64))
				r.Read(v)
				e.Columns[i] = Column{ID: r.Uint32(), Value: v}
			}
		}
	}
	return e
}

func entriesEqual(a, b Entry) bool {
	if a.Type != b.Type || a.LSN != b.LSN || a.TxnID != b.TxnID ||
		a.Timestamp != b.Timestamp || a.Table != b.Table ||
		a.RowKey != b.RowKey || a.WriteSeq != b.WriteSeq || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i].ID != b.Columns[i].ID || !bytes.Equal(a.Columns[i].Value, b.Columns[i].Value) {
			return false
		}
	}
	return true
}

func TestCodecRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genEntry(r)
		buf := Encode(&e)
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return entriesEqual(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeHeaderMatchesFullDecode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		e := genEntry(r)
		buf := Encode(&e)
		h, n, err := DecodeHeader(buf)
		if err != nil {
			t.Fatalf("header decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("header reports frame %d, encoded %d", n, len(buf))
		}
		if h.Type != e.Type || h.TxnID != e.TxnID ||
			h.Timestamp != e.Timestamp || (e.Type.IsDML() && h.Table != e.Table) {
			t.Fatalf("header mismatch: %+v vs %+v", h, e)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	e := Entry{Type: TypeInsert, Table: 1, RowKey: 2,
		Columns: []Column{{ID: 1, Value: []byte("abcdef")}}}
	buf := Encode(&e)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("decode succeeded on %d-byte truncation of %d-byte frame", cut, len(buf))
		}
	}
}

func TestDecodeRejectsInvalidType(t *testing.T) {
	e := Entry{Type: TypeBegin}
	buf := Encode(&e)
	buf[1] = 0xee // the type byte leads the payload, after a one-byte frameLen
	if _, _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid type byte: err = %v, want ErrCorrupt", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		e    Entry
		ok   bool
	}{
		{"begin ok", Entry{Type: TypeBegin, TxnID: 1}, true},
		{"begin with columns", Entry{Type: TypeBegin, Columns: []Column{{}}}, false},
		{"insert no columns", Entry{Type: TypeInsert}, false},
		{"insert ok", Entry{Type: TypeInsert, Columns: []Column{{ID: 1}}}, true},
		{"delete no columns ok", Entry{Type: TypeDelete}, true},
		{"invalid type", Entry{Type: LogType(42)}, false},
	}
	for _, c := range cases {
		if err := c.e.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestEntrySizeCountsColumns(t *testing.T) {
	e := Entry{Type: TypeUpdate, Columns: []Column{{ID: 1, Value: make([]byte, 100)}}}
	small := Entry{Type: TypeUpdate, Columns: []Column{{ID: 1, Value: make([]byte, 1)}}}
	if e.Size() <= small.Size() {
		t.Fatal("Size must grow with column payload")
	}
}

func TestAppendEncodeExtends(t *testing.T) {
	a := Entry{Type: TypeBegin, TxnID: 1}
	b := Entry{Type: TypeCommit, TxnID: 1}
	buf := AppendEncode(AppendEncode(nil, &a), &b)
	e1, n1, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	e2, n2, err := Decode(buf[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(buf) || e1.Type != TypeBegin || e2.Type != TypeCommit {
		t.Fatal("concatenated frames did not decode back")
	}
}

func TestReflectRoundTripColumns(t *testing.T) {
	// Ensures Decode produces structurally identical column slices
	// (guards against aliasing the input buffer).
	e := Entry{Type: TypeUpdate, Table: 1, RowKey: 1,
		Columns: []Column{{ID: 7, Value: []byte("value")}}}
	buf := Encode(&e)
	got, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-2] ^= 0xff // scribble on the buffer after decode
	if !reflect.DeepEqual(e.Columns, got.Columns) {
		t.Fatal("decoded columns alias the input buffer")
	}
}

// TestDecodeIntoMatchesDecode runs the decode differential (see
// checkDecodeInto) over a stream of random valid entries and pins the two
// count-mismatch rejections: a window shorter than the entry's columns,
// and a header whose column count its frame cannot hold.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		e := genEntry(r)
		buf := Encode(&e)
		if !checkDecodeInto(t, buf) {
			t.Fatalf("valid entry %d rejected", i)
		}
		if len(e.Columns) > 0 {
			short := make([]Column, len(e.Columns)-1)
			if _, _, err := DecodeInto(buf, short); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("entry %d: window one column short: err = %v, want ErrCorrupt", i, err)
			}
		}
	}

	// An UPDATE claiming 2^40 columns over a payload of a few bytes: the
	// header scan must refuse it before its count sizes anything, and so
	// must Decode.
	over := []byte{byte(TypeUpdate), 1, 1, 0} // table, row key, write seq
	over = binary.AppendUvarint(over, 1<<40)
	frame := append(binary.AppendUvarint(nil, uint64(len(over))), over...)
	if _, _, err := DecodeHeader(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-claiming header: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-claiming frame: err = %v, want ErrCorrupt", err)
	}
}

// TestEncodeDropsLSN: the LSN is not part of an entry's bytes — an entry
// encodes the same whatever its LSN, and a single-frame decode leaves the
// LSN 0 (DecodeStream numbers a stream; see TestStreamEncodeDecode).
func TestEncodeDropsLSN(t *testing.T) {
	e := Entry{Type: TypeUpdate, Table: 1, RowKey: 2,
		Columns: []Column{{ID: 1, Value: []byte("v")}}}
	numbered := e
	numbered.LSN = 1 << 40
	buf := Encode(&numbered)
	if !bytes.Equal(buf, Encode(&e)) {
		t.Fatal("the LSN changed the encoding")
	}
	got, _, err := Decode(buf)
	if err != nil || got.LSN != 0 || !entriesEqual(got, e) {
		t.Fatalf("Decode = %+v, %v; want %+v", got, err, e)
	}
}

// TestFrameLenPrefix pins the uvarint frame length: a payload under 128
// bytes takes a one-byte prefix, longer ones the minimal uvarint, and the
// decoders refuse a prefix that is cut short, longer than ten bytes,
// overflows 64 bits or claims more than the buffer holds.
func TestFrameLenPrefix(t *testing.T) {
	for _, size := range []int{0, 1, 100, 127, 128, 300, 16383, 16384, 70000} {
		e := Entry{Type: TypeInsert, Table: 1, RowKey: 1,
			Columns: []Column{{ID: 1, Value: bytes.Repeat([]byte{7}, size)}}}
		buf := Encode(&e)
		n, k := binary.Uvarint(buf)
		if k != len(binary.AppendUvarint(nil, n)) || int(n)+k != len(buf) {
			t.Fatalf("value %d bytes: prefix %d bytes claims %d of %d", size, k, n, len(buf))
		}
		if got, _, err := Decode(append(buf, 0xff)); err != nil || !entriesEqual(got, e) {
			t.Fatalf("value %d bytes: %v", size, err)
		}
	}
	body := Encode(&Entry{Type: TypeCommit, TxnID: 1, Timestamp: 1})[1:]
	for name, frame := range map[string][]byte{
		"empty":        {},
		"cut prefix":   {0x80},
		"past buffer":  append([]byte{byte(len(body) + 1)}, body...),
		"max uint64":   append(binary.AppendUvarint(nil, ^uint64(0)), body...),
		"overflow":     append(bytes.Repeat([]byte{0xff}, 9), 0x02, 0),
		"eleven bytes": append(append(bytes.Repeat([]byte{0x80}, 10), 0), body...),
	} {
		if _, _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", name, err)
		}
		if _, _, err := DecodeHeader(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeHeader err = %v, want ErrCorrupt", name, err)
		}
	}
}
