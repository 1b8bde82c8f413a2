package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"aets/internal/memtable"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/workload"
)

func populatedMemtable(t *testing.T) (*memtable.Memtable, Meta) {
	t.Helper()
	p := primary.New(workload.NewTPCC(2), 33)
	txns := p.GenerateTxns(800)
	mt := memtable.New()
	reference.Apply(mt, txns)
	return mt, Meta{
		LastEpochSeq: 3,
		LastTxnID:    txns[len(txns)-1].ID,
		LastCommitTS: txns[len(txns)-1].CommitTS,
		Fed:          true,
	}
}

func TestNextEpochSeq(t *testing.T) {
	if got := (Meta{}).NextEpochSeq(); got != 0 {
		t.Fatalf("fresh meta resume cursor %d, want 0", got)
	}
	if got := (Meta{LastEpochSeq: 0, Fed: true}).NextEpochSeq(); got != 1 {
		t.Fatalf("fed-at-epoch-0 resume cursor %d, want 1", got)
	}
	if got := (Meta{LastEpochSeq: 9, Fed: true}).NextEpochSeq(); got != 10 {
		t.Fatalf("resume cursor %d, want 10", got)
	}
}

// TestFedFlagRoundTrip covers both polarities: a fresh (never-fed)
// checkpoint must restore as never-fed, and a fed-at-epoch-0 checkpoint
// must restore with the cursor past epoch 0. Before the flags byte the
// two were indistinguishable.
func TestFedFlagRoundTrip(t *testing.T) {
	for _, fed := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteWith(&buf, memtable.New(), Meta{Fed: fed}, nil); err != nil {
			t.Fatal(err)
		}
		_, meta, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Fed != fed {
			t.Fatalf("Fed=%v did not round-trip", fed)
		}
		want := uint64(0)
		if fed {
			want = 1
		}
		if got := meta.NextEpochSeq(); got != want {
			t.Fatalf("Fed=%v: resume cursor %d, want %d", fed, got, want)
		}
	}
}

func TestUnknownFlagsRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWith(&buf, memtable.New(), Meta{}, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The meta of a zero Meta is three zero varints; the flags byte is
	// right after them. Set a reserved bit and refresh the trailer CRC.
	flagsOff := len(magic) + 2 + 3
	data[flagsOff] |= 0x80
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
	if _, _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for unknown flags, got %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	mt, meta := populatedMemtable(t)
	var buf bytes.Buffer
	if err := WriteWith(&buf, mt, meta, nil); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta %+v, want %+v", gotMeta, meta)
	}
	tables := workload.TableIDs(workload.NewTPCC(2).Tables())
	if err := reference.Equal(mt, got, tables); err != nil {
		t.Fatal(err)
	}
	if err := reference.CheckChains(got, tables); err != nil {
		t.Fatal(err)
	}
}

// TestWriteIndependentOfShardCount applies one primary stream to a
// single-shard and an 8-shard memtable: the checkpoints must be
// byte-identical, so the key order Write emits comes from the keys alone,
// not from how the table is split into shards.
func TestWriteIndependentOfShardCount(t *testing.T) {
	txns := primary.New(workload.NewTPCC(2), 35).GenerateTxns(800)
	meta := Meta{LastTxnID: txns[len(txns)-1].ID, LastCommitTS: txns[len(txns)-1].CommitTS, Fed: true}
	var out [2]bytes.Buffer
	for i, shards := range []int{1, 8} {
		mt := memtable.NewWithShards(shards)
		reference.Apply(mt, txns)
		if err := WriteWith(&out[i], mt, meta, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("1-shard checkpoint (%d bytes) differs from 8-shard checkpoint (%d bytes)", out[0].Len(), out[1].Len())
	}
}

func TestEmptyMemtableRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWith(&buf, memtable.New(), Meta{LastEpochSeq: 7}, nil); err != nil {
		t.Fatal(err)
	}
	mt, meta, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.LastEpochSeq != 7 || len(mt.Tables()) != 0 {
		t.Fatalf("meta %+v tables %v", meta, mt.Tables())
	}
}

func TestCorruptionRejected(t *testing.T) {
	mt, meta := populatedMemtable(t)
	var buf bytes.Buffer
	if err := WriteWith(&buf, mt, meta, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, corrupt := range []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },                     // body flip
		func(b []byte) []byte { b[len(b)-2] ^= 0xff; return b },                     // trailer flip
		func(b []byte) []byte { return b[:len(b)-5] },                               // truncation
		func(b []byte) []byte { b[0] = 'X'; return b },                              // magic
		func(b []byte) []byte { return append(b, 1, 2, 3) },                         // trailing garbage
		func(b []byte) []byte { return b[:3] },                                      // tiny
		func(b []byte) []byte { b[len(magic)] = 99; b[len(magic)+1] = 0; return b }, // version
	} {
		cp := append([]byte(nil), data...)
		if _, _, err := Read(bytes.NewReader(corrupt(cp))); err == nil {
			t.Fatal("corrupted checkpoint accepted")
		}
	}
}

func TestCorruptionErrorType(t *testing.T) {
	mt, meta := populatedMemtable(t)
	var buf bytes.Buffer
	_ = WriteWith(&buf, mt, meta, nil)
	data := buf.Bytes()
	data[len(data)/3] ^= 0x55
	_, _, err := Read(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestResumeReplayAfterRestore is the recovery story end to end: replay
// half the stream, checkpoint, restore into a fresh node, replay the rest,
// and compare against a full serial application.
func TestResumeReplayAfterRestore(t *testing.T) {
	p := primary.New(workload.NewTPCC(2), 44)
	txns := p.GenerateTxns(1000)
	tables := workload.TableIDs(workload.NewTPCC(2).Tables())

	full := memtable.New()
	reference.Apply(full, txns)

	// First half on node A, checkpointed.
	nodeA := memtable.New()
	reference.Apply(nodeA, txns[:500])
	var buf bytes.Buffer
	if err := WriteWith(&buf, nodeA, Meta{LastTxnID: txns[499].ID, LastCommitTS: txns[499].CommitTS}, nil); err != nil {
		t.Fatal(err)
	}

	// Restore on node B, resume with the second half.
	nodeB, meta, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.LastTxnID != txns[499].ID {
		t.Fatalf("resume position %d, want %d", meta.LastTxnID, txns[499].ID)
	}
	reference.Apply(nodeB, txns[500:])

	if err := reference.Equal(full, nodeB, tables); err != nil {
		t.Fatal(err)
	}
}
