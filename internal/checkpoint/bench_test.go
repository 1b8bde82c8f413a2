package checkpoint

import (
	"bytes"
	"io"
	"testing"

	"aets/internal/memtable"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/workload"
)

func benchState(b *testing.B) (*memtable.Memtable, Meta) {
	b.Helper()
	p := primary.New(workload.NewTPCC(2), 1)
	txns := p.GenerateTxns(2000)
	mt := memtable.New()
	reference.Apply(mt, txns)
	return mt, Meta{LastTxnID: txns[len(txns)-1].ID, LastCommitTS: txns[len(txns)-1].CommitTS}
}

func BenchmarkCheckpointWrite(b *testing.B) {
	mt, meta := benchState(b)
	b.ReportAllocs()
	for b.Loop() {
		if err := WriteWith(io.Discard, mt, meta, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointRead(b *testing.B) {
	mt, meta := benchState(b)
	var buf bytes.Buffer
	if err := WriteWith(&buf, mt, meta, nil); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
