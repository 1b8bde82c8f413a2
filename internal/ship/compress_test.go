// Mixed-capability interop and compression end-to-end tests: every
// pairing of peers must converge to reference-equal state, with
// compression engaged exactly when both ends negotiated it.
package ship_test

import (
	"testing"

	"aets/internal/metrics"
	"aets/internal/ship"
)

// interopResult captures one matrix cell's outcome.
type interopResult struct {
	sender   ship.SenderStats
	receiver ship.ReceiverStats
	// errors the serve loop saw before the stream settled
	connErrs []error
}

// runShipInterop ships a TPC-C stream through one sender/receiver
// pairing over real TCP, asserts the backup converges to the directly
// fed reference, and returns the link's stats.
func runShipInterop(t *testing.T, mutSender func(*ship.SenderConfig), mutReceiver func(*ship.ReceiverConfig)) interopResult {
	t.Helper()
	encs := tpccEncoded(2048, 128) // 16 epochs, bufs well above any threshold
	want := directNode(t, encs)
	defer want.Close()

	ln := listen(t)
	defer ln.Close()
	node := newNode(t)
	defer node.Close()
	reg := metrics.NewRegistry()
	rcfg := ship.ReceiverConfig{
		Schema:  tpccSchema(),
		Metrics: ship.NewMetrics(reg),
		Drain:   func() error { node.Drain(); return node.Err() },
	}
	if mutReceiver != nil {
		mutReceiver(&rcfg)
	}
	rcv := mustShipReceiver(t, node, rcfg)
	done, errs := serveLoop(ln, rcv)

	scfg := ship.SenderConfig{
		Dial:    dialer(ln.Addr().String()),
		Schema:  tpccSchema(),
		Window:  4,
		Metrics: ship.NewMetrics(reg),
	}
	if mutSender != nil {
		mutSender(&scfg)
	}
	s := mustSender(t, scfg)
	for i := range encs {
		if err := s.Send(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats() // before Close tears the link down
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "serve loop")
	assertSameState(t, node, want)
	return interopResult{sender: st, receiver: rcv.Stats(), connErrs: errs.all()}
}

func assertNoConnErrs(t *testing.T, res interopResult) {
	t.Helper()
	for _, err := range res.connErrs {
		t.Fatalf("unexpected connection error: %v", err)
	}
}

func TestInteropBothCompressed(t *testing.T) {
	res := runShipInterop(t,
		func(c *ship.SenderConfig) { c.Compress = true },
		func(c *ship.ReceiverConfig) { c.Compress = true })
	assertNoConnErrs(t, res)
	if !res.sender.Compressing {
		t.Fatal("both ends compress but the link did not negotiate CapFlate")
	}
	if res.sender.BytesWire >= res.sender.BytesRaw {
		t.Fatalf("compressed link did not shrink the stream: wire %d ≥ raw %d",
			res.sender.BytesWire, res.sender.BytesRaw)
	}
	ratio := float64(res.sender.BytesWire) / float64(res.sender.BytesRaw)
	t.Logf("tpcc wire/raw ratio: %.3f (%d / %d bytes)", ratio, res.sender.BytesWire, res.sender.BytesRaw)
}

func TestInteropCompressionRequiresBothEnds(t *testing.T) {
	// Only one end advertises CapFlate: the handshake succeeds, yet the
	// stream must stay uncompressed — the mixed-fleet case, both ways.
	for name, mut := range map[string]struct {
		sender   func(*ship.SenderConfig)
		receiver func(*ship.ReceiverConfig)
	}{
		"sender only":   {sender: func(c *ship.SenderConfig) { c.Compress = true }},
		"receiver only": {receiver: func(c *ship.ReceiverConfig) { c.Compress = true }},
	} {
		res := runShipInterop(t, mut.sender, mut.receiver)
		assertNoConnErrs(t, res)
		if res.sender.Compressing {
			t.Fatalf("%s: sender compressing without both ends advertising CapFlate", name)
		}
		if res.sender.BytesWire != res.sender.BytesRaw {
			t.Fatalf("%s: unnegotiated link must ship raw bytes: wire %d, raw %d",
				name, res.sender.BytesWire, res.sender.BytesRaw)
		}
	}
}

func TestCompressThresholdBoundary(t *testing.T) {
	// A threshold above every epoch buf keeps the negotiated link
	// shipping raw frames.
	res := runShipInterop(t,
		func(c *ship.SenderConfig) { c.Compress = true; c.CompressThreshold = 1 << 30 },
		func(c *ship.ReceiverConfig) { c.Compress = true })
	assertNoConnErrs(t, res)
	if !res.sender.Compressing {
		t.Fatal("capability should negotiate regardless of threshold")
	}
	if res.sender.BytesWire != res.sender.BytesRaw {
		t.Fatalf("every buf below threshold must ship raw: wire %d, raw %d",
			res.sender.BytesWire, res.sender.BytesRaw)
	}

	// Threshold 1 compresses everything compressible.
	res = runShipInterop(t,
		func(c *ship.SenderConfig) { c.Compress = true; c.CompressThreshold = 1 },
		func(c *ship.ReceiverConfig) { c.Compress = true })
	assertNoConnErrs(t, res)
	if res.sender.BytesWire >= res.sender.BytesRaw {
		t.Fatalf("threshold 1 did not compress: wire %d ≥ raw %d", res.sender.BytesWire, res.sender.BytesRaw)
	}
}
