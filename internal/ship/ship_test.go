// End-to-end tests of the replication transport: a real TCP listener, a
// Sender shipping TPC-C epochs and an htap.Node applying them, compared
// record-for-record against a directly fed node.
package ship_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/ship"
	"aets/internal/workload"
)

const testWarehouses = 4

func tpccEncoded(txns, epochSize int) []epoch.Encoded {
	p := primary.New(workload.NewTPCC(testWarehouses), 1)
	return p.GenerateEncoded(txns, epochSize)
}

func tpccPlan() *grouping.Plan {
	gen := workload.NewTPCC(testWarehouses)
	return grouping.Build(htap.TPCCRates(1000), workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.05, MinPts: 2})
}

func tpccSchema() uint64 {
	return ship.SchemaHash("tpcc", workload.TableIDs(workload.NewTPCC(testWarehouses).Tables()))
}

func newNode(t *testing.T) *htap.Node {
	t.Helper()
	n, err := htap.NewNode(htap.KindAETS, tpccPlan(), htap.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustSender(t *testing.T, cfg ship.SenderConfig) *ship.Sender {
	t.Helper()
	s, err := ship.NewSender(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustReceiver(t *testing.T, cfg ship.ReceiverConfig) *ship.Receiver {
	t.Helper()
	r, err := ship.NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustShipReceiver(t *testing.T, node *htap.Node, cfg ship.ReceiverConfig) *ship.Receiver {
	t.Helper()
	r, err := node.ShipReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// directNode replays the stream without any transport: the ground truth.
func directNode(t *testing.T, encs []epoch.Encoded) *htap.Node {
	t.Helper()
	n := newNode(t)
	for i := range encs {
		if err := n.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	n.Drain()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func assertSameState(t *testing.T, got, want *htap.Node) {
	t.Helper()
	got.Drain()
	want.Drain()
	tables := workload.TableIDs(workload.NewTPCC(testWarehouses).Tables())
	if err := reference.Equal(want.Memtable(), got.Memtable(), tables); err != nil {
		t.Fatalf("backup state diverged: %v", err)
	}
}

// serveLoop accepts and serves connections until a clean end-of-stream,
// collecting per-connection errors (expected when faults cut the wire).
func serveLoop(ln net.Listener, rcv *ship.Receiver) (<-chan struct{}, *connErrs) {
	done := make(chan struct{})
	errs := &connErrs{}
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				errs.add(err)
				return
			}
			finished, err := rcv.Serve(conn)
			if err != nil {
				errs.add(err)
			}
			if finished {
				return
			}
		}
	}()
	return done, errs
}

type connErrs struct {
	mu   sync.Mutex
	list []error
}

func (c *connErrs) add(err error) {
	c.mu.Lock()
	c.list = append(c.list, err)
	c.mu.Unlock()
}

func (c *connErrs) all() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.list...)
}

func waitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: timeout", what)
	}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func dialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func TestShipEndToEnd(t *testing.T) {
	encs := tpccEncoded(4096, 256)
	want := directNode(t, encs)
	defer want.Close()

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

	s := mustSender(t, ship.SenderConfig{
		Dial:    dialer(ln.Addr().String()),
		Schema:  tpccSchema(),
		Window:  4,
		Metrics: ship.NewMetrics(reg),
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
	for _, err := range errs.all() {
		t.Fatalf("unexpected connection error: %v", err)
	}

	assertSameState(t, node, want)

	st := s.Stats()
	if st.Sent != int64(len(encs)) || st.Acked != int64(len(encs)) {
		t.Fatalf("sent %d acked %d, want %d each", st.Sent, st.Acked, len(encs))
	}
	if st.Inflight != 0 || st.AckCursor != uint64(len(encs)) {
		t.Fatalf("inflight %d cursor %d after close", st.Inflight, st.AckCursor)
	}
	if got := rcv.Stats(); got.Txns != 4096 || got.Duplicates != 0 {
		t.Fatalf("receiver stats %+v", got)
	}
	if snap := reg.Snapshot(); snap["ship_epochs_sent"] != float64(len(encs)) ||
		snap["ship_epochs_acked"] != float64(len(encs)) {
		t.Fatalf("registry snapshot %v", snap)
	}
}

func TestBackpressureBoundsInflightWindow(t *testing.T) {
	encs := tpccEncoded(2048, 128) // 16 epochs
	release := make(chan struct{})
	app := &blockingApplier{release: release}
	rcv := mustReceiver(t, ship.ReceiverConfig{
		Applier: app,
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
	})
	ln := listen(t)
	defer ln.Close()
	done, errs := serveLoop(ln, rcv)

	const window = 2
	s := mustSender(t, ship.SenderConfig{
		Dial:    dialer(ln.Addr().String()),
		Schema:  0,
		Window:  window,
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
	})
	var completed atomic.Int64
	sendDone := make(chan error, 1)
	go func() {
		for i := range encs {
			if err := s.Send(&encs[i]); err != nil {
				sendDone <- err
				return
			}
			completed.Add(1)
		}
		sendDone <- s.Close()
	}()

	// The applier blocks on the first epoch, so no acks flow: the sender
	// must stall with exactly `window` epochs outstanding rather than
	// buffering the whole stream.
	deadline := time.Now().Add(5 * time.Second)
	for completed.Load() < window && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // give a runaway sender time to overshoot
	if got := completed.Load(); got != window {
		t.Fatalf("sender completed %d sends while acks were blocked, want %d", got, window)
	}
	if st := s.Stats(); st.Inflight != window {
		t.Fatalf("inflight %d while blocked, want %d", st.Inflight, window)
	}

	close(release)
	if err := <-sendDone; err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "serve loop")
	for _, err := range errs.all() {
		t.Fatalf("unexpected connection error: %v", err)
	}
	if st := s.Stats(); st.Acked != int64(len(encs)) {
		t.Fatalf("acked %d, want %d", st.Acked, len(encs))
	}
	if got := app.fed.Load(); got != int64(len(encs)) {
		t.Fatalf("applier saw %d epochs, want %d", got, len(encs))
	}
}

type blockingApplier struct {
	release chan struct{}
	fed     atomic.Int64
}

func (a *blockingApplier) Feed(*epoch.Encoded) error {
	a.fed.Add(1)
	<-a.release
	return nil
}

func (a *blockingApplier) Heartbeat(int64) error { return nil }

func TestHeartbeatAdvancesIdleVisibility(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	node := newNode(t)
	defer node.Close()
	rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
	})
	done, errs := serveLoop(ln, rcv)

	var ts atomic.Int64
	s := mustSender(t, ship.SenderConfig{
		Dial:           dialer(ln.Addr().String()),
		Schema:         tpccSchema(),
		HeartbeatEvery: 5 * time.Millisecond,
		HeartbeatTS:    func() int64 { return ts.Add(1000) },
		Metrics:        ship.NewMetrics(metrics.NewRegistry()),
	})
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	// No epochs at all: heartbeats alone must advance global_cmt_ts (the
	// paper's dummy-log mechanism for idle streams).
	deadline := time.Now().Add(10 * time.Second)
	for node.VisibleTS() < 3000 {
		if time.Now().After(deadline) {
			t.Fatalf("visible ts stuck at %d without epochs", node.VisibleTS())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "serve loop")
	for _, err := range errs.all() {
		t.Fatalf("unexpected connection error: %v", err)
	}
	if node.NextSeq() != 0 {
		t.Fatalf("heartbeats must not advance the resume cursor, got %d", node.NextSeq())
	}
}

func TestResumeFromCheckpointDedupes(t *testing.T) {
	encs := tpccEncoded(4096, 256) // 16 epochs
	want := directNode(t, encs)
	defer want.Close()

	// Phase 1: ship the first 9 epochs, checkpoint, discard the node.
	var ckpt bytes.Buffer
	{
		ln := listen(t)
		node := newNode(t)
		rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
			Schema:  tpccSchema(),
			Metrics: ship.NewMetrics(metrics.NewRegistry()),
			Drain:   func() error { node.Drain(); return node.Err() },
		})
		done, errs := serveLoop(ln, rcv)
		s := mustSender(t, ship.SenderConfig{
			Dial:    dialer(ln.Addr().String()),
			Schema:  tpccSchema(),
			Metrics: ship.NewMetrics(metrics.NewRegistry()),
		})
		for i := 0; i < 9; i++ {
			if err := s.Send(&encs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		waitDone(t, done, "phase-1 serve loop")
		for _, err := range errs.all() {
			t.Fatalf("phase 1: %v", err)
		}
		if _, err := node.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		node.Close()
		ln.Close()
	}

	// Phase 2: restore, and let a sender that knows nothing about the
	// checkpoint replay the whole stream. The WELCOME cursor tells the
	// sender epochs 0–8 are already durable, so they are retired at Send
	// without touching the wire; only 9–15 are transmitted and applied.
	node, meta, err := htap.RestoreNode(&ckpt, htap.KindAETS, tpccPlan(), htap.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if meta.LastEpochSeq != 8 || node.NextSeq() != 9 {
		t.Fatalf("restored cursor: meta %d, next %d", meta.LastEpochSeq, node.NextSeq())
	}
	ln := listen(t)
	defer ln.Close()
	reg := metrics.NewRegistry()
	rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Metrics: ship.NewMetrics(reg),
		Drain:   func() error { node.Drain(); return node.Err() },
	})
	done, errs := serveLoop(ln, rcv)
	s := mustSender(t, ship.SenderConfig{
		Dial:    dialer(ln.Addr().String()),
		Schema:  tpccSchema(),
		Window:  4,
		Metrics: ship.NewMetrics(reg),
	})
	for i := range encs {
		if err := s.Send(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "phase-2 serve loop")
	for _, err := range errs.all() {
		t.Fatalf("phase 2: %v", err)
	}

	assertSameState(t, node, want)
	if st := rcv.Stats(); st.Duplicates != 0 || st.Cursor != uint64(len(encs)) {
		t.Fatalf("receiver stats %+v, want 0 duplicates, cursor %d", st, len(encs))
	}
	if st := s.Stats(); st.AckCursor != uint64(len(encs)) || st.Acked != int64(len(encs)) {
		t.Fatalf("sender stats %+v, want everything acked at cursor %d", st, len(encs))
	}
	if st := s.Stats(); st.Sent != int64(len(encs)-9) {
		t.Fatalf("sent %d epochs, want %d (0–8 trimmed by the resume handshake)", st.Sent, len(encs)-9)
	}
}

func TestSchemaMismatchIsPermanent(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	node := newNode(t)
	defer node.Close()
	rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
	})
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		_, err = rcv.Serve(conn)
		errCh <- err
	}()

	s := mustSender(t, ship.SenderConfig{
		Dial:        dialer(ln.Addr().String()),
		Schema:      tpccSchema() + 1,
		RetryBase:   time.Millisecond,
		MaxAttempts: 5,
		Metrics:     ship.NewMetrics(metrics.NewRegistry()),
	})
	if err := s.Connect(); !errors.Is(err, ship.ErrSchemaMismatch) {
		t.Fatalf("sender: got %v, want ErrSchemaMismatch", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ship.ErrSchemaMismatch) {
			t.Fatalf("receiver: got %v, want ErrSchemaMismatch", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver never finished")
	}
	s.Close()
}

// foreignFrame is the frame a build speaking another protocol version
// would write: same layout, its own version byte, CRC over the result.
func foreignFrame(kind byte, payload []byte) []byte {
	f := ship.AppendFrame(nil, kind, 0, payload)
	f[1] = ship.Version + 1
	binary.LittleEndian.PutUint32(f[len(f)-4:],
		crc32.Checksum(f[:len(f)-4], crc32.MakeTable(crc32.Castagnoli)))
	return f
}

// TestForeignVersionIsTerminal: there is no version fallback. A
// receiver refuses a HELLO with a foreign version byte with ErrVersion,
// and a sender answered in a foreign version reports ErrVersion after
// exactly one dial instead of spending its retry budget on redials.
func TestForeignVersionIsTerminal(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	node := newNode(t)
	defer node.Close()
	rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
	})
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		_, err = rcv.Serve(conn)
		errCh <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(foreignFrame(ship.KindHello, shipAppendHello(tpccSchema()))); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ship.ErrVersion) {
			t.Fatalf("receiver: got %v, want ErrVersion", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver never refused the foreign HELLO")
	}

	// The other direction: a peer that answers every HELLO in a foreign
	// version.
	foreign := listen(t)
	defer foreign.Close()
	go func() {
		for {
			conn, err := foreign.Accept()
			if err != nil {
				return
			}
			if _, _, err := ship.ReadFrame(conn); err == nil {
				_, _ = conn.Write(foreignFrame(ship.KindWelcome, make([]byte, 32)))
			}
			conn.Close()
		}
	}()
	var dials atomic.Int32
	s := mustSender(t, ship.SenderConfig{
		Dial: func() (net.Conn, error) {
			dials.Add(1)
			return net.Dial("tcp", foreign.Addr().String())
		},
		Schema:      tpccSchema(),
		RetryBase:   time.Millisecond,
		MaxAttempts: 5,
		Metrics:     ship.NewMetrics(metrics.NewRegistry()),
	})
	defer s.Close()
	if err := s.Connect(); !errors.Is(err, ship.ErrVersion) {
		t.Fatalf("sender: got %v, want ErrVersion", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("sender dialed %d times against a foreign-version peer, want 1", n)
	}
}

func TestSenderGivesUpAfterMaxAttempts(t *testing.T) {
	ln := listen(t)
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more

	s := mustSender(t, ship.SenderConfig{
		Dial:        dialer(addr),
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
		MaxAttempts: 3,
		Metrics:     ship.NewMetrics(metrics.NewRegistry()),
	})
	err := s.Connect()
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("got %v, want failure after 3 attempts", err)
	}
	s.Close()
	encs := tpccEncoded(16, 16)
	if err := s.Send(&encs[0]); !errors.Is(err, ship.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

// failOnceApplier injects a single Feed failure, then behaves like the
// real node.
type failOnceApplier struct {
	node   *htap.Node
	failed atomic.Bool
	feeds  atomic.Int64
}

func (a *failOnceApplier) Feed(enc *epoch.Encoded) error {
	a.feeds.Add(1)
	if a.failed.CompareAndSwap(false, true) {
		return errors.New("injected applier failure")
	}
	return a.node.Feed(enc)
}

func (a *failOnceApplier) Heartbeat(ts int64) error { return a.node.Heartbeat(ts) }

// TestFailedFeedDoesNotAdvanceCursor is the regression test for the
// cursor-before-Feed bug: when Feed fails, the cursor must still point at
// the failed epoch so the reconnect handshake redelivers it. Before the
// fix the cursor had already advanced, the WELCOME told the sender to
// skip the epoch, and it was silently lost.
func TestFailedFeedDoesNotAdvanceCursor(t *testing.T) {
	encs := tpccEncoded(1024, 128) // 8 epochs
	want := directNode(t, encs)
	defer want.Close()

	node := newNode(t)
	defer node.Close()
	app := &failOnceApplier{node: node}
	rcv := mustReceiver(t, ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Applier: app,
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
	})
	ln := listen(t)
	defer ln.Close()
	done, errs := serveLoop(ln, rcv)

	s := mustSender(t, ship.SenderConfig{
		Dial:      dialer(ln.Addr().String()),
		Schema:    tpccSchema(),
		Window:    4,
		RetryBase: time.Millisecond,
		Metrics:   ship.NewMetrics(metrics.NewRegistry()),
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

	// Exactly the injected failure, surfaced as a connection error.
	es := errs.all()
	if len(es) != 1 || !strings.Contains(es[0].Error(), "injected applier failure") {
		t.Fatalf("connection errors %v, want only the injected failure", es)
	}
	// The failed epoch must have been redelivered: every epoch applied
	// once, plus the one failed attempt.
	if got := app.feeds.Load(); got != int64(len(encs))+1 {
		t.Fatalf("applier saw %d feeds, want %d (all epochs + 1 failed attempt)", got, len(encs)+1)
	}
	if rcv.Cursor() != uint64(len(encs)) {
		t.Fatalf("cursor %d, want %d", rcv.Cursor(), len(encs))
	}
	// Stats count applied work only — the failed attempt must not inflate
	// the transaction total.
	if st := rcv.Stats(); st.Txns != 1024 {
		t.Fatalf("receiver counted %d txns, want 1024", st.Txns)
	}
	assertSameState(t, node, want)
}

func TestGapIsRejected(t *testing.T) {
	encs := tpccEncoded(1024, 128)
	ln := listen(t)
	defer ln.Close()
	node := newNode(t)
	defer node.Close()
	rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
	})
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		_, err = rcv.Serve(conn)
		errCh <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client := newRawClient(t, conn, tpccSchema())
	// Epoch 5 while the receiver expects 0: the stream has a hole and
	// must be refused, not silently applied.
	client.writeEpoch(&encs[5])
	select {
	case err := <-errCh:
		if !errors.Is(err, ship.ErrGap) {
			t.Fatalf("got %v, want ErrGap", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver never rejected the gap")
	}
}

// TestFreshCheckpointRestoreResumesFromEpochZero covers the fed-ness
// round trip: checkpoint a node that was never fed, restore it, and ship
// the full stream. Before Meta.Fed, the restored node reported NextSeq 1
// (fed=true, lastSeq=0), the WELCOME cursor told the sender epoch 0 was
// already durable, and the stream permanently skipped it.
func TestFreshCheckpointRestoreResumesFromEpochZero(t *testing.T) {
	encs := tpccEncoded(1024, 128)
	want := directNode(t, encs)
	defer want.Close()

	var ckpt bytes.Buffer
	fresh := newNode(t)
	meta, err := fresh.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Close()
	if meta.Fed || meta.NextEpochSeq() != 0 {
		t.Fatalf("fresh checkpoint meta %+v, want Fed=false resume 0", meta)
	}

	node, gotMeta, err := htap.RestoreNode(&ckpt, htap.KindAETS, tpccPlan(), htap.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if gotMeta.Fed {
		t.Fatalf("restored meta claims fed: %+v", gotMeta)
	}
	if got := node.NextSeq(); got != 0 {
		t.Fatalf("restored fresh node resume cursor %d, want 0 (epoch 0 would be skipped)", got)
	}

	ln := listen(t)
	defer ln.Close()
	rcv := mustShipReceiver(t, node, ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Metrics: ship.NewMetrics(metrics.NewRegistry()),
		Drain:   func() error { node.Drain(); return node.Err() },
	})
	done, errs := serveLoop(ln, rcv)
	s := mustSender(t, ship.SenderConfig{
		Dial:    dialer(ln.Addr().String()),
		Schema:  tpccSchema(),
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
	waitDone(t, done, "serve loop")
	for _, err := range errs.all() {
		t.Fatalf("unexpected connection error: %v", err)
	}
	if got := rcv.Stats(); got.Cursor != uint64(len(encs)) || got.Duplicates != 0 {
		t.Fatalf("receiver stats %+v, want cursor %d and no duplicates", got, len(encs))
	}
	assertSameState(t, node, want)
}

// Per-peer metrics: two senders sharing one registry but labelled with
// distinct peers must not collide — a fan-out primary's links are
// distinguishable series, not one aggregate.
func TestPeerMetricsDistinctSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	a := ship.NewPeerMetrics(reg, "r1")
	b := ship.NewPeerMetrics(reg, "r2")
	a.EpochsSent.Add(3)
	b.EpochsSent.Add(5)
	a.Connected.Set(1)
	b.FramesBuilt.Inc()
	snap := reg.Snapshot()
	if snap[`ship_epochs_sent{peer="r1"}`] != 3 || snap[`ship_epochs_sent{peer="r2"}`] != 5 {
		t.Fatalf("per-peer counters collided: %v", snap)
	}
	if snap[`ship_frames_built_total{peer="r1"}`] != 0 || snap[`ship_frames_built_total{peer="r2"}`] != 1 {
		t.Fatalf("per-peer build counters collided: %v", snap)
	}
	if snap[`ship_connected{peer="r1"}`] != 1 || snap[`ship_connected{peer="r2"}`] != 0 {
		t.Fatalf("per-peer gauges collided: %v", snap)
	}
	// The unlabelled canonical names stay available for single-link use.
	if ship.NewPeerMetrics(reg, "").EpochsSent != reg.Counter("ship_epochs_sent") {
		t.Fatal("empty peer must register the canonical unlabelled series")
	}
}
