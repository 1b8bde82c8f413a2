// End-to-end fan-out tests: one TPC-C epoch stream shipped over real
// TCP to several htap.Nodes at once, compared record-for-record against
// a directly fed reference node.
package cluster_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"aets/internal/cluster"
	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/ship"
	"aets/internal/workload"
)

const fanWarehouses = 2

func fanEncoded(txns, epochSize int) []epoch.Encoded {
	p := primary.New(workload.NewTPCC(fanWarehouses), 1)
	return p.GenerateEncoded(txns, epochSize)
}

func fanPlan() *grouping.Plan {
	gen := workload.NewTPCC(fanWarehouses)
	return grouping.Build(htap.TPCCRates(1000), workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.05, MinPts: 2})
}

func fanSchema() uint64 {
	return ship.SchemaHash("tpcc", workload.TableIDs(workload.NewTPCC(fanWarehouses).Tables()))
}

func fanNode(t *testing.T) *htap.Node {
	t.Helper()
	n, err := htap.NewNode(htap.KindAETS, fanPlan(), htap.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func fanDirect(t *testing.T, encs []epoch.Encoded) *htap.Node {
	t.Helper()
	n := fanNode(t)
	for i := range encs {
		if err := n.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	n.Drain()
	return n
}

func fanAssertSame(t *testing.T, got, want *htap.Node, who string) {
	t.Helper()
	got.Drain()
	want.Drain()
	tables := workload.TableIDs(workload.NewTPCC(fanWarehouses).Tables())
	if err := reference.Equal(want.Memtable(), got.Memtable(), tables); err != nil {
		t.Fatalf("%s diverged from reference: %v", who, err)
	}
}

// fanReceiver is one backup behind a real TCP listener, serving
// connections until a clean end-of-stream. node is set when the backup
// is a fixed node (startFanReceiver).
type fanReceiver struct {
	node *htap.Node
	addr string
	done chan struct{}
	errs []error
	mu   sync.Mutex
}

func startFanReceiver(t *testing.T, node *htap.Node, reg *metrics.Registry, peer string, compress bool) *fanReceiver {
	t.Helper()
	rcv, err := node.ShipReceiver(ship.ReceiverConfig{
		Schema:   fanSchema(),
		Drain:    func() error { node.Drain(); return node.Err() },
		Metrics:  ship.NewPeerMetrics(reg, peer),
		Compress: compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	fr := serveFan(t, rcv)
	fr.node = node
	return fr
}

// serveFan runs rcv's accept loop on a fresh loopback listener.
func serveFan(t *testing.T, rcv *ship.Receiver) *fanReceiver {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fr := &fanReceiver{addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(fr.done)
		defer ln.Close()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			finished, err := rcv.Serve(conn)
			if err != nil {
				fr.mu.Lock()
				fr.errs = append(fr.errs, err)
				fr.mu.Unlock()
			}
			if finished {
				return
			}
		}
	}()
	return fr
}

func (fr *fanReceiver) wait(t *testing.T) {
	t.Helper()
	select {
	case <-fr.done:
	case <-time.After(60 * time.Second):
		fr.mu.Lock()
		errs := fr.errs
		fr.mu.Unlock()
		t.Fatalf("receiver did not finish (serve errors: %v)", errs)
	}
}

func fanDialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// TestFanoutThreeReceivers: one stream, three replicas, all byte-equal
// to the reference, with per-peer labelled ship metrics kept apart in
// one registry. The fan-out builds each epoch's frame once per form for
// all its peers: over raw links or three flate links the peers' builds
// sum to one per epoch, and a fleet where one replica cannot inflate
// needs at most a flate and a raw build per epoch.
func TestFanoutThreeReceivers(t *testing.T) {
	encs := fanEncoded(2048, 128)
	want := fanDirect(t, encs)
	for _, tc := range []struct {
		name      string
		compress  [3]bool // per receiver; every sender offers flate when any does
		maxBuilds int
	}{
		{"raw", [3]bool{}, len(encs)},
		{"flate", [3]bool{true, true, true}, len(encs)},
		{"mixed", [3]bool{false, true, true}, 2 * len(encs)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			var peers []cluster.Peer
			var rcvs []*fanReceiver
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("replica-%d", i)
				fr := startFanReceiver(t, fanNode(t), reg, id, tc.compress[i])
				rcvs = append(rcvs, fr)
				peers = append(peers, cluster.Peer{ID: id, Sender: ship.SenderConfig{
					Dial:     fanDialer(fr.addr),
					Schema:   fanSchema(),
					Window:   8,
					Compress: tc.compress != [3]bool{},
				}})
			}

			f, err := cluster.NewFanout(cluster.FanoutConfig{Peers: peers, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			for i := range encs {
				if err := f.Send(&encs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if got := f.Live(); got != 3 {
				t.Fatalf("live peers = %d, want 3", got)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("fan-out close: %v", err)
			}
			for i, fr := range rcvs {
				fr.wait(t)
				fanAssertSame(t, fr.node, want, fmt.Sprintf("replica-%d", i))
			}

			// Per-peer series are distinct and each counted the full stream.
			counter := func(base string, i int) int64 {
				return reg.Counter(metrics.WithLabel(base, "peer", fmt.Sprintf("replica-%d", i))).Load()
			}
			var builds int64
			var flateWire []int64
			for i := 0; i < 3; i++ {
				if got := counter("ship_epochs_sent", i); got != int64(len(encs)) {
					t.Fatalf("replica-%d ship_epochs_sent = %d, want %d", i, got, len(encs))
				}
				builds += counter("ship_frames_built_total", i)
				wire, raw := counter("ship_bytes_wire_total", i), counter("ship_bytes_raw_total", i)
				switch {
				case !tc.compress[i] && wire != raw:
					t.Fatalf("raw replica-%d wrote %d wire bytes for %d raw", i, wire, raw)
				case tc.compress[i] && wire >= raw:
					t.Fatalf("flate replica-%d wrote %d wire bytes for %d raw", i, wire, raw)
				case tc.compress[i]:
					flateWire = append(flateWire, wire)
				}
			}
			for _, w := range flateWire {
				if w != flateWire[0] {
					t.Fatalf("flate peers wrote different byte counts: %v", flateWire)
				}
			}
			if builds < int64(len(encs)) || builds > int64(tc.maxBuilds) {
				t.Fatalf("peers built %d frames for %d epochs, want %d..%d", builds, len(encs), len(encs), tc.maxBuilds)
			}
		})
	}
}

// TestFanoutDeadPeerIsolation: one peer's dial always fails; its
// siblings must finish the stream untouched while the dead peer reports
// a terminal error through Stats and Close.
func TestFanoutDeadPeerIsolation(t *testing.T) {
	encs := fanEncoded(1024, 128)
	want := fanDirect(t, encs)
	reg := metrics.NewRegistry()

	liveA := startFanReceiver(t, fanNode(t), reg, "a", false)
	liveB := startFanReceiver(t, fanNode(t), reg, "b", false)
	deadDial := func() (net.Conn, error) { return nil, errors.New("link severed") }

	f, err := cluster.NewFanout(cluster.FanoutConfig{
		Registry: reg,
		Peers: []cluster.Peer{
			{ID: "a", Sender: ship.SenderConfig{Dial: fanDialer(liveA.addr), Schema: fanSchema()}},
			{ID: "dead", Sender: ship.SenderConfig{Dial: deadDial, Schema: fanSchema(),
				MaxAttempts: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond}},
			{ID: "b", Sender: ship.SenderConfig{Dial: fanDialer(liveB.addr), Schema: fanSchema()}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range encs {
		if err := f.Send(&encs[i]); err != nil {
			t.Fatalf("send with live siblings failed: %v", err)
		}
	}
	err = f.Close()
	if err == nil {
		t.Fatal("close must surface the dead peer's error")
	}
	liveA.wait(t)
	liveB.wait(t)
	fanAssertSame(t, liveA.node, want, "peer a")
	fanAssertSame(t, liveB.node, want, "peer b")

	var deadErr error
	for _, st := range f.Stats() {
		switch st.ID {
		case "dead":
			deadErr = st.Err
		case "a", "b":
			if st.Err != nil {
				t.Fatalf("live peer %s has error: %v", st.ID, st.Err)
			}
			if st.Acked != int64(len(encs)) {
				t.Fatalf("peer %s acked %d, want %d", st.ID, st.Acked, len(encs))
			}
		}
	}
	if deadErr == nil {
		t.Fatal("dead peer has no terminal error in Stats")
	}
}

// TestFanoutQueueOverflow: a bounded divergence buffer drops a stuck
// peer with ErrPeerOverflow instead of buffering without limit, and the
// fan-out reports ErrAllPeersDown once its only peer is gone.
func TestFanoutQueueOverflow(t *testing.T) {
	encs := fanEncoded(1024, 64)
	stuck := func() (net.Conn, error) { return nil, errors.New("no route") }
	f, err := cluster.NewFanout(cluster.FanoutConfig{
		Registry: metrics.NewRegistry(),
		MaxQueue: 2,
		Peers: []cluster.Peer{{ID: "stuck", Sender: ship.SenderConfig{
			Dial: stuck, Schema: fanSchema(),
			MaxAttempts: 1000, RetryBase: 50 * time.Millisecond, RetryMax: 50 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sendErr error
	for i := range encs {
		if sendErr = f.Send(&encs[i]); sendErr != nil {
			break
		}
	}
	if !errors.Is(sendErr, cluster.ErrAllPeersDown) {
		t.Fatalf("send error = %v, want ErrAllPeersDown", sendErr)
	}
	overflowed := false
	for _, st := range f.Stats() {
		if errors.Is(st.Err, cluster.ErrPeerOverflow) {
			overflowed = true
		}
	}
	if !overflowed {
		t.Fatalf("no peer reports ErrPeerOverflow: %+v", f.Stats())
	}
	_ = f.Close()
}
