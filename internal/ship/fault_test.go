// Fault-injection tests: the wire is cut mid-epoch, frames are
// duplicated and writes fragmented, and the resumed stream must
// converge to exactly the state of an unbroken run — no gaps, no
// double-apply.
package ship_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/ship"
)

// TestReconnectResumeAfterMidEpochCut severs the first connection after
// a fixed byte budget — inside an epoch frame — and lets the sender's
// backoff reconnect resume from the backup's cursor. Early and late
// cuts cover "nothing acked yet" and "window partially acked".
func TestReconnectResumeAfterMidEpochCut(t *testing.T) {
	encs := tpccEncoded(4096, 512) // 8 large epochs, several hundred KB each
	want := directNode(t, encs)
	defer want.Close()

	for _, tc := range []struct {
		name string
		cut  int64
	}{
		{"early-cut", 100_000},
		{"late-cut", 900_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln := listen(t)
			defer ln.Close()
			node := newNode(t)
			defer node.Close()
			reg := metrics.NewRegistry()
			rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
				Schema:  tpccSchema(),
				Metrics: ship.NewMetrics(reg),
				Drain:   func() error { node.Drain(); return node.Err() },
			})
			done, errs := serveLoop(ln, rcv)

			dial := ship.FaultDialer(dialer(ln.Addr().String()), func(i int) ship.FaultOpts {
				if i == 0 {
					return ship.FaultOpts{CutWriteAfter: tc.cut}
				}
				return ship.FaultOpts{} // reconnects are clean
			})
			s := mustSender(t, ship.SenderConfig{
				Dial:      dial,
				Schema:    tpccSchema(),
				Window:    4,
				RetryBase: time.Millisecond,
				RetryMax:  10 * time.Millisecond,
				Metrics:   ship.NewMetrics(reg),
			})
			for i := range encs {
				if err := s.Send(&encs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			waitDone(t, done, "serve loop")

			// The cut connection legitimately ends in a truncated frame or a
			// failed ack write; a sequence gap or corruption slipping
			// through the protocol checks would not be legitimate.
			for _, err := range errs.all() {
				if errors.Is(err, ship.ErrGap) || errors.Is(err, ship.ErrCorrupt) ||
					errors.Is(err, ship.ErrVersion) || errors.Is(err, ship.ErrSchemaMismatch) {
					t.Fatalf("protocol violation on resume: %v", err)
				}
			}

			// Byte-identical convergence with the unbroken run: every
			// version chain in every table matches, so nothing was lost to
			// the cut and nothing was applied twice on resume.
			assertSameState(t, node, want)

			st := s.Stats()
			if st.Reconnects != 1 {
				t.Fatalf("reconnects %d, want 1", st.Reconnects)
			}
			if st.Acked != int64(len(encs)) || st.AckCursor != uint64(len(encs)) {
				t.Fatalf("acked %d cursor %d, want %d", st.Acked, st.AckCursor, len(encs))
			}
			if snap := reg.Snapshot(); snap["ship_reconnects_total"] != 1 {
				t.Fatalf("ship_reconnects_total = %v, want 1", snap["ship_reconnects_total"])
			}
		})
	}
}

// gatedApplier holds every Feed until open is closed, so no ack leaves
// the receiver while the sender's window fills.
type gatedApplier struct {
	node *htap.Node
	open chan struct{}
}

func (a *gatedApplier) Feed(enc *epoch.Encoded) error {
	<-a.open
	return a.node.Feed(enc)
}

func (a *gatedApplier) Heartbeat(ts int64) error { return a.node.Heartbeat(ts) }

// TestReconnectRetransmitsBuiltFrames cuts a compressed link inside the
// last frame of a full, unacknowledged window. The resumed stream
// retransmits from the frames the sender already built: more epoch
// frames are sent than there are epochs, yet each epoch is deflated
// exactly once, and the backup converges to the reference.
func TestReconnectRetransmitsBuiltFrames(t *testing.T) {
	const window = 4
	encs := tpccEncoded(1024, 128) // 8 epochs, all above the compress threshold
	want := directNode(t, encs)
	defer want.Close()

	// The HELLO, the window's first frames, and half of its last one.
	cut := int64(len(ship.AppendFrame(nil, ship.KindHello, 0, make([]byte, 16))))
	for i := 0; i < window-1; i++ {
		cut += int64(ship.WireLen(&encs[i], true))
	}
	cut += int64(ship.WireLen(&encs[window-1], true) / 2)

	ln := listen(t)
	defer ln.Close()
	node := newNode(t)
	defer node.Close()
	app := &gatedApplier{node: node, open: make(chan struct{})}
	rcv := mustReceiver(t, ship.ReceiverConfig{
		Schema:   tpccSchema(),
		Applier:  app,
		Compress: true,
		Metrics:  ship.NewMetrics(metrics.NewRegistry()),
		Drain:    func() error { node.Drain(); return node.Err() },
	})
	done, _ := serveLoop(ln, rcv)

	reg := metrics.NewRegistry()
	s := mustSender(t, ship.SenderConfig{
		Dial: ship.FaultDialer(dialer(ln.Addr().String()), func(i int) ship.FaultOpts {
			if i == 0 {
				return ship.FaultOpts{CutWriteAfter: cut}
			}
			return ship.FaultOpts{}
		}),
		Schema:    tpccSchema(),
		Window:    window,
		Compress:  true,
		RetryBase: time.Millisecond,
		RetryMax:  10 * time.Millisecond,
		Metrics:   ship.NewMetrics(reg),
	})
	for i := 0; i < window; i++ {
		if err := s.Send(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Connected || st.Inflight != window || st.Acked != 0 {
		t.Fatalf("after the cut: %+v, want a dead link with a full unacked window", st)
	}
	close(app.open)
	for i := window; i < len(encs); i++ {
		if err := s.Send(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "serve loop")

	st := s.Stats()
	if st.Reconnects != 1 || st.Sent <= int64(len(encs)) {
		t.Fatalf("reconnects %d, sent %d: want 1 and more than %d epochs", st.Reconnects, st.Sent, len(encs))
	}
	if got := reg.Counter("ship_frames_built_total").Load(); got != int64(len(encs)) {
		t.Fatalf("ship_frames_built_total = %d after %d sends, want one build per epoch (%d)", got, st.Sent, len(encs))
	}
	assertSameState(t, node, want)
}

// TestDuplicateFramesDeduped delivers every frame twice (and fragments
// writes) through a FaultConn; the receiver must apply each epoch once.
func TestDuplicateFramesDeduped(t *testing.T) {
	encs := tpccEncoded(2048, 256) // 8 epochs
	want := directNode(t, encs)
	defer want.Close()

	ln := listen(t)
	defer ln.Close()
	node := newNode(t)
	defer node.Close()
	rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
		Drain:   func() error { node.Drain(); return node.Err() },
	})
	doneCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			doneCh <- err
			return
		}
		finished, err := rcv.Serve(conn)
		if err == nil && !finished {
			err = errors.New("stream ended without EOS")
		}
		doneCh <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	newRawClient(t, conn, tpccSchema())
	// After the handshake, every WriteFrame call (one frame per call) is
	// transmitted twice and fragmented into 100-byte chunks.
	faulty := ship.NewFaultConn(conn, ship.FaultOpts{DuplicateEvery: 1, Chunk: 100})
	for i := range encs {
		if err := ship.WriteFrame(faulty, ship.KindEpoch, ship.EncodeEpoch(&encs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := ship.WriteFrame(faulty, ship.KindEOS, shipAppendCursor(uint64(len(encs)))); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("receiver timeout")
	}

	assertSameState(t, node, want)
	if st := rcv.Stats(); st.Duplicates != int64(len(encs)) || st.Cursor != uint64(len(encs)) {
		t.Fatalf("receiver stats %+v, want %d duplicates", st, len(encs))
	}
}

// rawClient drives the protocol by hand for adversarial cases the real
// Sender never produces.
type rawClient struct {
	t    *testing.T
	conn net.Conn
}

func newRawClient(t *testing.T, conn net.Conn, schema uint64) *rawClient {
	t.Helper()
	c := &rawClient{t: t, conn: conn}
	c.write(ship.KindHello, shipAppendHello(schema))
	kind, _, err := ship.ReadFrame(conn)
	if err != nil || kind != ship.KindWelcome {
		t.Fatalf("handshake: kind %d, err %v", kind, err)
	}
	// Drain acks in the background so the receiver's ack writes never
	// block the test.
	go func() {
		for {
			if _, _, err := ship.ReadFrame(conn); err != nil {
				return
			}
		}
	}()
	return c
}

func (c *rawClient) write(kind byte, payload []byte) {
	c.t.Helper()
	if err := ship.WriteFrame(c.conn, kind, payload); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) writeEpoch(enc *epoch.Encoded) {
	c.write(ship.KindEpoch, ship.EncodeEpoch(enc))
}

// shipAppendHello is a HELLO advertising no capabilities.
func shipAppendHello(schema uint64) []byte {
	return append(shipAppendCursor(schema), shipAppendCursor(0)...)
}

func shipAppendCursor(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}
