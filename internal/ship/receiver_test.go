package ship

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"aets/internal/epoch"
	"aets/internal/metrics"
)

// seqApplier records the sequence numbers it is fed.
type seqApplier struct{ seqs []uint64 }

func (a *seqApplier) Feed(enc *epoch.Encoded) error { a.seqs = append(a.seqs, enc.Seq); return nil }
func (a *seqApplier) Heartbeat(int64) error         { return nil }

// TestReceiverSettlesSeqBeforeInflating: a redelivered compressed epoch
// is dropped and acked from its clear header alone — a garbage flate
// body behind a stale seq never reaches the decoder, so the link stays
// up — and a gap is still refused as one.
func TestReceiverSettlesSeqBeforeInflating(t *testing.T) {
	app := &seqApplier{}
	rcv, err := NewReceiver(ReceiverConfig{Schema: 7, Applier: app, Compress: true,
		Metrics: NewMetrics(metrics.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	conn, peer := net.Pipe()
	defer conn.Close()
	served := make(chan error, 1)
	go func() {
		_, err := rcv.Serve(peer)
		served <- err
	}()
	br := bufio.NewReader(conn)
	send := func(kind, flags byte, payload []byte) {
		t.Helper()
		if _, err := conn.Write(AppendFrame(nil, kind, flags, payload)); err != nil {
			t.Fatal(err)
		}
	}
	expectAck := func(want uint64) {
		t.Helper()
		kind, p, err := ReadFrame(br)
		if err != nil || kind != KindAck {
			t.Fatalf("want ACK, got kind %d, %v", kind, err)
		}
		if cur, _ := parseCursor(p, "ACK"); cur != want {
			t.Fatalf("ack cursor %d, want %d", cur, want)
		}
	}
	epochAt := func(seq uint64) *epoch.Encoded {
		return &epoch.Encoded{Seq: seq, TxnCount: 1, EntryCount: 1, Buf: bytes.Repeat([]byte("epoch-buf"), 100)}
	}
	// First bits 111: a final block of the reserved type 3.
	garbage := bytes.Repeat([]byte{0xff}, 16)

	send(KindHello, 0, appendHello(nil, 7, CapFlate))
	if kind, _, err := ReadFrame(br); err != nil || kind != KindWelcome {
		t.Fatalf("want WELCOME, got kind %d, %v", kind, err)
	}
	send(KindEpoch, FlagCompressed, flatePayload(epochAt(0)))
	expectAck(1)
	send(KindEpoch, FlagCompressed, append(appendEpochHdr(nil, epochAt(0)), garbage...))
	expectAck(1)
	send(KindEpoch, FlagCompressed, flatePayload(epochAt(1)))
	expectAck(2)
	send(KindEpoch, FlagCompressed, append(appendEpochHdr(nil, epochAt(5)), garbage...))
	if err := <-served; !errors.Is(err, ErrGap) {
		t.Fatalf("gap: got %v, want ErrGap", err)
	}
	if len(app.seqs) != 2 || app.seqs[0] != 0 || app.seqs[1] != 1 {
		t.Fatalf("applied %v, want [0 1]", app.seqs)
	}
	if st := rcv.Stats(); st.Duplicates != 1 || st.Cursor != 2 {
		t.Fatalf("receiver stats %+v, want 1 duplicate, cursor 2", st)
	}
}

// snapSeqApplier is a seqApplier that can also restore snapshots.
type snapSeqApplier struct{ seqApplier }

func (a *snapSeqApplier) RestoreSnapshot(uint64, int64, io.Reader) error { return nil }

// TestReceiverCapsOffered pins what a receiver advertises in WELCOME:
// CapSnapshot exactly when its Applier can restore a snapshot, CapFlate
// exactly when Compress is set.
func TestReceiverCapsOffered(t *testing.T) {
	for _, c := range []struct {
		name     string
		applier  Applier
		compress bool
		want     uint64
	}{
		{"plain applier", &seqApplier{}, false, 0},
		{"snapshot applier", &snapSeqApplier{}, false, CapSnapshot},
		{"compress", &seqApplier{}, true, CapFlate},
		{"snapshot applier, compress", &snapSeqApplier{}, true, CapSnapshot | CapFlate},
	} {
		rcv, err := NewReceiver(ReceiverConfig{Schema: 7, Applier: c.applier, Compress: c.compress,
			Metrics: NewMetrics(metrics.NewRegistry())})
		if err != nil {
			t.Fatal(err)
		}
		if got := rcv.capsOffered(); got != c.want {
			t.Errorf("%s: caps %#x, want %#x", c.name, got, c.want)
		}
	}
}
