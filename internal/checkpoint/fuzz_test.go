package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"aets/internal/memtable"
	"aets/internal/wal"
)

// fuzzSeedV2 is a small valid version-2 stream: two tables, multi-column
// versions, a tombstone.
func fuzzSeedV2(tb testing.TB) []byte {
	tb.Helper()
	mt := memtable.New()
	tab := mt.Table(1)
	rec := tab.GetOrCreate(7)
	rec.Append(&memtable.Version{TxnID: 1, CommitTS: 10, Columns: []wal.Column{
		{ID: 0, Value: []byte("hello")},
		{ID: 3, Value: []byte{0xde, 0xad}},
	}})
	rec.Append(&memtable.Version{TxnID: 2, CommitTS: 20, Deleted: true})
	mt.Table(5).GetOrCreate(42).Append(&memtable.Version{TxnID: 3, CommitTS: 30,
		Columns: []wal.Column{{ID: 1, Value: nil}}})
	var buf bytes.Buffer
	if err := WriteWith(&buf, mt, Meta{LastEpochSeq: 4, LastTxnID: 3, LastCommitTS: 30, Fed: true}, nil); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedV1 rewrites the v2 seed as a version-1 stream (no flags byte),
// with a recomputed trailer. Read must reject it as an unsupported
// version without crashing — the historical format keeps the version
// branch covered.
func fuzzSeedV1(tb testing.TB) []byte {
	tb.Helper()
	v2 := fuzzSeedV2(tb)
	body := v2[: len(v2)-4 : len(v2)-4]
	// Strip the flags byte: it sits after magic+version and three varints.
	off := len(magic) + 2
	br := bytes.NewReader(body[off:])
	for i := 0; i < 2; i++ {
		if _, err := binary.ReadUvarint(br); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := binary.ReadVarint(br); err != nil {
		tb.Fatal(err)
	}
	flagsAt := len(body) - br.Len() - 1
	v1 := append([]byte(nil), body[:flagsAt]...)
	v1 = append(v1, body[flagsAt+1:]...)
	binary.LittleEndian.PutUint16(v1[len(magic):], 1)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(v1))
	return append(v1, tail[:]...)
}

// FuzzRead throws mutated checkpoint streams at Read. The invariant is
// purely defensive: Read must return (not panic, not OOM on a hostile
// length prefix), and when it does accept a stream, writing the result
// back out and re-reading it must be stable.
func FuzzRead(f *testing.F) {
	f.Add(fuzzSeedV2(f))
	f.Add(fuzzSeedV1(f))
	var empty bytes.Buffer
	if err := WriteWith(&empty, memtable.New(), Meta{}, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	// A CRC-valid stream with a hostile column count: crafted corruption
	// that the trailer check alone cannot reject.
	hostile := append([]byte(nil), fuzzSeedV2(f)...)
	hostile[len(hostile)-5] ^= 0x40 // scramble a body byte near the tail
	binary.LittleEndian.PutUint32(hostile[len(hostile)-4:], crc32.ChecksumIEEE(hostile[:len(hostile)-4]))
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		mt, meta, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteWith(&buf, mt, meta, nil); err != nil {
			t.Fatalf("re-write of accepted stream: %v", err)
		}
		if _, _, err := Read(&buf); err != nil {
			t.Fatalf("re-read of re-written stream: %v", err)
		}
	})
}
