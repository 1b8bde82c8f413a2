package wal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"
)

// checkDecodeInto is the decode differential on arbitrary bytes: nothing
// panics; the header scan, which sizes replay's column slab before any
// column is read, never reports more columns than the bytes could hold; when
// Decode accepts, the header scan accepts with the same frame
// length and reports exactly len(entry.Columns), and DecodeInto over a
// window of that size accepts the same bytes, yields an equal entry and
// allocates nothing of its own — its Columns are the window and every
// Value lies inside buf. It reports whether Decode accepted.
func checkDecodeInto(t *testing.T, buf []byte) bool {
	t.Helper()
	// payloadOf reads the frame length as binary.Uvarint does.
	pn, pk := binary.Uvarint(buf)
	ok := pk > 0 && pn <= uint64(len(buf)-pk)
	if _, size, err := payloadOf(buf); (err == nil) != ok || ok && size != pk+int(pn) {
		t.Fatalf("payloadOf: size %d err %v; binary.Uvarint: %d over %d bytes", size, err, pn, pk)
	}
	h, hn, herr := DecodeHeader(buf)
	if herr == nil && h.Columns > len(buf)/2 {
		t.Fatalf("header scan let %d columns through over %d bytes", h.Columns, len(buf))
	}
	want, n, err := Decode(buf)
	if err != nil {
		// Decode is the stricter of the two: DecodeInto must agree with it,
		// whatever the header scan (which skips the column values) thought.
		if herr == nil {
			if _, _, ierr := DecodeInto(buf, make([]Column, h.Columns)); ierr == nil {
				t.Fatalf("DecodeInto accepted bytes Decode rejects (%v)", err)
			}
		}
		return false
	}
	if herr != nil || hn != n {
		t.Fatalf("Decode accepted %d bytes, header scan: n=%d err=%v", n, hn, herr)
	}
	if h.Columns != len(want.Columns) {
		t.Fatalf("header scan counted %d columns, entry has %d", h.Columns, len(want.Columns))
	}
	window := make([]Column, h.Columns)
	got, gn, err := DecodeInto(buf, window)
	if err != nil || gn != n {
		t.Fatalf("DecodeInto: n=%d err=%v, Decode consumed %d", gn, err, n)
	}
	if !entriesEqual(got, want) {
		t.Fatalf("DecodeInto = %+v\nDecode     = %+v", got, want)
	}
	if len(got.Columns) > 0 && &got.Columns[0] != &window[0] {
		t.Fatal("DecodeInto columns are not the caller's window")
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	for i, c := range got.Columns {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(c.Value)))
		if p < lo || p+uintptr(len(c.Value)) > lo+uintptr(n) {
			t.Fatalf("column %d value lies outside the frame", i)
		}
	}
	return true
}

// FuzzDecode drives checkDecodeInto with arbitrary bytes, seeded with
// valid frames of every entry type (random ones, then the smallest frame
// of each of the three shapes: BEGIN, a column-less DELETE, COMMIT), an
// empty buffer, a frame whose length
// prefix claims no payload at all, and hostile length prefixes: an
// 11-byte over-long uvarint, a length one past the buffer, and 2^64-1.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 16; i++ {
		e := genEntry(rng)
		f.Add(Encode(&e))
	}
	for _, e := range []Entry{{Type: TypeBegin}, {Type: TypeDelete}, {Type: TypeCommit}} {
		f.Add(Encode(&e))
	}
	body := Encode(&Entry{Type: TypeCommit, TxnID: 1, Timestamp: 1})[1:] // after a one-byte prefix
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(append(append(bytes.Repeat([]byte{0x80}, 10), 0), body...))
	f.Add(append(binary.AppendUvarint(nil, uint64(len(body)+1)), body...))
	f.Add(append(binary.AppendUvarint(nil, ^uint64(0)), body...))
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkDecodeInto(t, buf)
	})
}

// TestDecodeNeverPanicsOnMutation flips random bytes in valid frames and
// requires Decode/DecodeHeader to either reject or return a structurally
// valid entry — never panic, never read out of bounds.
func TestDecodeNeverPanicsOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 3000; trial++ {
		e := genEntry(rng)
		buf := Encode(&e)
		// Mutate 1–4 random bytes.
		for m := 0; m < 1+rng.Intn(4); m++ {
			buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		}
		got, _, err := Decode(buf)
		if err == nil {
			if vErr := got.Validate(); vErr != nil {
				t.Fatalf("mutated frame decoded into invalid entry: %v", vErr)
			}
		}
		// Header decode skips the column values, so it must stay in bounds
		// on garbage the full decode refuses, and the windowed decode must
		// agree with Decode.
		checkDecodeInto(t, buf)
	}
}

// TestDecodeNeverPanicsOnRandomBytes throws raw noise at the decoders.
func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		_, _, _ = Decode(buf)
		_, _, _ = DecodeHeader(buf)
	}
}

// TestDecodeStreamStopsAtCorruption checks that a corrupted tail does not
// leak previously decoded entries' validity.
func TestDecodeStreamStopsAtCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf []byte
	for i := 0; i < 10; i++ {
		e := genEntry(rng)
		buf = AppendEncode(buf, &e)
	}
	buf = append(buf, 0xde, 0xad, 0xbe)
	if _, err := DecodeStream(buf, 1); err == nil {
		t.Fatal("corrupted tail accepted")
	}
}
