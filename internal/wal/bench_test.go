package wal

import (
	"math/rand"
	"testing"
)

func benchEntries(n int) ([]Entry, [][]byte) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, n)
	frames := make([][]byte, n)
	for i := range entries {
		entries[i] = Entry{
			Type: TypeUpdate, Table: TableID(rng.Intn(8) + 1),
			RowKey: rng.Uint64() % 100000, WriteSeq: uint64(i),
			Columns: []Column{
				{ID: 1, Value: make([]byte, 8)},
				{ID: 2, Value: make([]byte, 16)},
			},
		}
		frames[i] = Encode(&entries[i])
	}
	return entries, frames
}

func BenchmarkEncode(b *testing.B) {
	entries, _ := benchEntries(1024)
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		buf = AppendEncode(buf[:0], &entries[i%len(entries)])
	}
}

func BenchmarkDecode(b *testing.B) {
	_, frames := benchEntries(1024)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, _, err := Decode(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeHeader(b *testing.B) {
	_, frames := benchEntries(1024)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, _, err := DecodeHeader(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}
