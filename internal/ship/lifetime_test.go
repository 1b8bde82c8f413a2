package ship_test

import (
	"runtime"
	"testing"

	"aets/internal/htap"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/reference"
	"aets/internal/ship"
)

// TestAliasedEpochBufferOutlivesTheLink pins the lifetime half of the
// epoch-buffer ownership contract (epoch.Encoded) on the path where the
// most hands touch the bytes: over an uncompressed link enc.Buf IS the
// frame payload ReadFrameFlags allocated, FeedFrame spools those same
// bytes, and replay's column values are sub-slices of them — no layer
// keeps a copy. Once the stream has ended nothing but the version chains
// refers to any epoch's buffer; the collector, not a pool or a fence, must
// keep every one of them alive and unchanged.
func TestAliasedEpochBufferOutlivesTheLink(t *testing.T) {
	encs := tpccEncoded(4000, 128)
	ref := memtable.New()
	for i := range encs {
		txns, err := encs[i].Decode()
		if err != nil {
			t.Fatal(err)
		}
		reference.Apply(ref, txns)
	}
	want := htap.StateDigest(ref)

	sup, rcv := supervisedReceiver(t, metrics.NewRegistry(), nil)
	ln := listen(t)
	done, errs := serveLoop(ln, rcv)
	s := mustSender(t, ship.SenderConfig{
		Dial:    dialer(ln.Addr().String()),
		Schema:  tpccSchema(),
		Window:  8,
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
	})
	for i := range encs {
		if err := s.Send(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "receiver")
	ln.Close()
	if st := s.Stats(); st.BytesWire != st.BytesRaw {
		t.Fatalf("link was not raw (%+v): enc.Buf did not alias the wire payload", st)
	}
	if l := errs.all(); len(l) != 0 {
		t.Fatalf("receiver errors: %v", l)
	}

	// Sender, receiver, connection and the primary's own copy of the
	// stream are all unreachable from here on.
	s, rcv, encs = nil, nil, nil
	sup.Node().Drain()
	runtime.GC()
	runtime.GC()
	if got := sup.Node().StateDigest(); got != want {
		t.Fatalf("state digest %#x after collection, serial reference %#x", got, want)
	}
}
