// Chaos end-to-end test: a primary ships TPC-C epochs over the real
// transport with injected faults, the supervised backup is hard-killed
// at random points across several lives — once with a bit flipped in
// its spool — and the final life must converge to exactly the state of
// a serial reference application.
package recovery

import (
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/reference"
	"aets/internal/ship"
	"aets/internal/workload"
)

// chaosLives is the number of hard restarts before the clean final
// life; the acceptance bar is ≥ 5.
const chaosLives = 6

func chaosSchema() uint64 {
	return ship.SchemaHash("tpcc", workload.TableIDs(workload.NewTPCC(supWarehouses).Tables()))
}

// trackingListener remembers accepted connections so a "crash" can
// sever them all at once.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

func TestChaosRestartsConvergeToReference(t *testing.T) {
	txnCount, epochSize := 6000, 128
	if testing.Short() {
		txnCount, epochSize = 2000, 64
	}
	// AETS_CHAOS_COMPRESS=1 runs the same chaos with negotiated frame
	// compression on every link: compressed frames then cross the faulty
	// wire, land in the spool as received, and survive the restarts.
	compress := os.Getenv("AETS_CHAOS_COMPRESS") != ""
	if compress {
		t.Log("chaos leg: flate compression negotiated on all links")
	}
	txns, encs := supStream(t, txnCount, epochSize)
	want := memtable.New()
	reference.Apply(want, txns)

	spoolDir, ckptDir := t.TempDir(), t.TempDir()
	rng := rand.New(rand.NewSource(42))

	// Faulty lives: the dial is cut after a random byte budget (the
	// random restart point), frames are fragmented and duplicated, and
	// when the sender dies the backup is hard-killed: connections
	// severed, the supervisor abandoned without a final checkpoint.
	for life := 0; life < chaosLives; life++ {
		env := openSup(t, spoolDir, ckptDir, func(cfg *Config) {
			cfg.CheckpointEveryEpochs = 4 // exercise checkpoint + spool pruning
		})

		base, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln := &trackingListener{Listener: base}
		rcv, err := ship.NewReceiver(ship.ReceiverConfig{
			Schema:   chaosSchema(),
			Resume:   env.sup.NextSeq(),
			Applier:  env.sup,
			Metrics:  ship.NewMetrics(metrics.NewRegistry()),
			Compress: compress,
		})
		if err != nil {
			t.Fatal(err)
		}
		var serveWG sync.WaitGroup
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				// Faulted connections die mid-frame by design; errors are
				// the point of this test.
				_, _ = rcv.Serve(conn)
			}
		}()

		cut := int64(20_000 + rng.Intn(1_500_000))
		chunk := 0
		if life%2 == 0 {
			chunk = 512 + rng.Intn(4096)
		}
		dup := 0
		if life%3 == 0 {
			dup = 2 + rng.Intn(5)
		}
		dial := ship.FaultDialer(
			func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
			func(i int) ship.FaultOpts {
				return ship.FaultOpts{CutWriteAfter: cut, Chunk: chunk, DuplicateEvery: dup}
			})
		s, err := ship.NewSender(ship.SenderConfig{
			Dial:        dial,
			Schema:      chaosSchema(),
			Window:      8,
			RetryBase:   time.Millisecond,
			RetryMax:    5 * time.Millisecond,
			MaxAttempts: 2, // every attempt is cut: the sender dies quickly
			Metrics:     ship.NewMetrics(metrics.NewRegistry()),
			Compress:    compress,
		})
		if err != nil {
			t.Fatal(err)
		}
		sent := 0
		for i := range encs {
			if err := s.Send(&encs[i]); err != nil {
				break // the cut wire killed the stream: this life is over
			}
			sent++
		}
		_ = s.Close()

		// Hard kill: sever every connection, abandon the supervisor with
		// no drain and no parting checkpoint. Durability is whatever the
		// spool and checkpoint manager already put on disk.
		ln.kill()
		serveWG.Wait()
		env.close(t)
		t.Logf("life %d: cut=%dB chunk=%d dup=%d, sender enqueued %d/%d epochs, backup cursor %d",
			life, cut, chunk, dup, sent, len(encs), rcv.Cursor())

		// Between two lives, corrupt the spool at rest: flip one bit in
		// the middle of the newest segment. Open must truncate the torn
		// tail and the transport must re-ship the difference.
		if life == chaosLives/2 {
			segs, err := filepath.Glob(filepath.Join(spoolDir, spoolPrefix+"*"+spoolSuffix))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no spool segments to corrupt (%v)", err)
			}
			victim := segs[len(segs)-1]
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) > 0 {
				data[len(data)/2] ^= 0x04
				if err := os.WriteFile(victim, data, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("life %d: flipped a bit at %s offset %d", life, filepath.Base(victim), len(data)/2)
			}
		}
	}

	// Final life: a clean link. The stream must finish with an EOS,
	// checkpoint via Drain, and match the serial reference exactly.
	env := openSup(t, spoolDir, ckptDir, nil)
	defer env.close(t)
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	rcv, err := ship.NewReceiver(ship.ReceiverConfig{
		Schema:   chaosSchema(),
		Resume:   env.sup.NextSeq(),
		Applier:  env.sup,
		Drain:    env.sup.Checkpoint,
		Metrics:  ship.NewMetrics(metrics.NewRegistry()),
		Compress: compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for {
			conn, err := base.Accept()
			if err != nil {
				done <- err
				return
			}
			eos, err := rcv.Serve(conn)
			if err != nil {
				done <- err
				return
			}
			if eos {
				done <- nil
				return
			}
		}
	}()
	s, err := ship.NewSender(ship.SenderConfig{
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", base.Addr().String()) },
		Schema:   chaosSchema(),
		Window:   8,
		Metrics:  ship.NewMetrics(metrics.NewRegistry()),
		Compress: compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range encs {
		if err := s.Send(&encs[i]); err != nil {
			t.Fatalf("final life send: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("final life close: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("final life serve: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("final life timed out")
	}

	if st := env.sup.State(); st != StateRunning {
		t.Fatalf("final state %s (stats %+v), want running", st, env.sup.Stats())
	}
	node := env.sup.Node()
	node.Drain()
	if err := node.Err(); err != nil {
		t.Fatal(err)
	}
	if err := reference.Equal(want, node.Memtable(), supTables()); err != nil {
		t.Fatalf("chaos survivor diverged from reference: %v", err)
	}
	if got := env.sup.NextSeq(); got != uint64(len(encs)) {
		t.Fatalf("final cursor %d, want %d", got, len(encs))
	}
}

// TestChaosPoisonEpochQuarantinedNotCrashLooping is the poison half of
// the acceptance bar, driven through the Applier interface the
// transport uses: one undecodable epoch mid-stream must be quarantined
// within the supervisor's failure budget, leaving the node degraded and
// still applying the rest of the stream.
func TestChaosPoisonEpochQuarantinedNotCrashLooping(t *testing.T) {
	_, encs := supStream(t, 1000, 100)
	k := len(encs) / 2
	spoolDir, ckptDir := t.TempDir(), t.TempDir()
	env := openSup(t, spoolDir, ckptDir, nil)
	defer env.close(t)

	for i := range encs[:k] {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	poison := &epoch.Encoded{
		Seq:          uint64(k),
		TxnCount:     1,
		EntryCount:   1,
		Buf:          []byte{0xff, 0xfe, 0xfd, 0xfc},
		LastCommitTS: encs[k-1].LastCommitTS,
	}
	if err := env.sup.Feed(poison); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for env.sup.State() != StateDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("poison epoch never quarantined (stats %+v)", env.sup.Stats())
		}
		_ = env.sup.Probe()
		time.Sleep(time.Millisecond)
	}
	st := env.sup.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined %d, want 1", st.Quarantined)
	}
	// Not crash-looping: the node is live and keeps applying.
	for i := k; i < len(encs); i++ {
		shifted := encs[i]
		shifted.Seq++
		if err := env.sup.Feed(&shifted); err != nil {
			t.Fatalf("feed after quarantine: %v", err)
		}
	}
	if env.sup.Node() == nil {
		t.Fatal("no live node after quarantine")
	}
}
