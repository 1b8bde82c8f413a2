// Torn snapshot transfers: the wire is cut at every chunk boundary and
// mid-chunk, and the receiver must never install partial state — the
// retry restarts the transfer from scratch and converges exactly once.
package ship_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"aets/internal/epoch"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/ship"
)

// blobSource serves a fixed byte blob as the snapshot for cursor.
type blobSource struct {
	cursor uint64
	blob   []byte
}

func (s *blobSource) Snapshot() (uint64, int64, io.ReadCloser, error) {
	return s.cursor, int64(len(s.blob)), io.NopCloser(bytes.NewReader(s.blob)), nil
}

// tornApplier implements validate-before-install: state is recorded
// only when the stream reads through to a valid EOF. Torn attempts are
// counted and must leave state untouched.
type tornApplier struct {
	mu       sync.Mutex
	installs int
	torn     int
	state    []byte
}

func (a *tornApplier) Feed(*epoch.Encoded) error { return nil }
func (a *tornApplier) Heartbeat(int64) error     { return nil }

func (a *tornApplier) RestoreSnapshot(cursor uint64, size int64, r io.Reader) error {
	data, err := io.ReadAll(r)
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		// The stream reader refused to produce EOF for an incomplete
		// transfer; nothing installs.
		a.torn++
		return err
	}
	a.installs++
	a.state = data
	return nil
}

func (a *tornApplier) installed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.installs > 0
}

// TestTornSnapshotTransferNeverInstallsPartial cuts the wire at every
// chunk frame boundary, mid-chunk, mid-SNAPBEGIN and mid-trailer. Each
// cut must leave the applier empty (no partial install), and the clean
// retry must install the full blob exactly once.
func TestTornSnapshotTransferNeverInstallsPartial(t *testing.T) {
	const schema = uint64(0xfeedf00d)
	blob := bytes.Repeat([]byte("snapshot-catchup-bytes!\n"), 25000) // 600000 bytes, 3 chunks
	for i := range blob {
		blob[i] ^= byte(i) // no long runs, defeats any accidental dedup
	}

	// Wire byte offsets of interest. The HELLO is a 28-byte frame and is
	// counted too — the fault conn cuts at absolute stream offsets.
	const helloLen, beginLen, frameOverhead, trailerLen = 28, 28, 12, 24
	off := int64(helloLen + beginLen)
	cuts := []int64{off - 5, off} // mid-SNAPBEGIN, at SNAPBEGIN boundary
	for rem := len(blob); rem > 0; {
		c := rem
		if c > 256<<10 {
			c = 256 << 10
		}
		off += int64(c + frameOverhead)
		cuts = append(cuts, off-7, off) // mid-chunk, at chunk boundary
		rem -= c
	}
	cuts = append(cuts, off+trailerLen/2, off+trailerLen) // mid-trailer, after full stream

	for _, cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			t.Parallel()
			applier := &tornApplier{}
			rcv := mustReceiver(t, ship.ReceiverConfig{
				Schema:       schema,
				Applier:      applier,
				NeedSnapshot: func() bool { return !applier.installed() },
				Metrics:      ship.NewMetrics(metrics.NewRegistry()),
			})
			ln := listen(t)
			done, _ := serveLoop(ln, rcv)

			s := mustSender(t, ship.SenderConfig{
				Dial: ship.FaultDialer(dialer(ln.Addr().String()), func(i int) ship.FaultOpts {
					if i == 0 {
						return ship.FaultOpts{CutWriteAfter: cut}
					}
					return ship.FaultOpts{}
				}),
				Schema:      schema,
				Window:      4,
				MaxAttempts: 6,
				Metrics:     ship.NewMetrics(metrics.NewRegistry()),
				Snapshot:    &blobSource{cursor: 42, blob: blob},
			})
			if err := s.Connect(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// EOS is best-effort: a cut landing after the complete stream
			// loses it, and the receiver (correctly) keeps serving. End
			// the loop through the listener instead.
			ln.Close()
			waitDone(t, done, "receiver")

			applier.mu.Lock()
			installs, torn, state := applier.installs, applier.torn, applier.state
			applier.mu.Unlock()
			if installs != 1 {
				t.Fatalf("snapshot installed %d times, want exactly 1 (torn attempts: %d)", installs, torn)
			}
			if !bytes.Equal(state, blob) {
				t.Fatalf("installed state diverged: %d bytes, want %d", len(state), len(blob))
			}
			if st := rcv.Stats(); st.SnapshotsRestored != 1 {
				t.Fatalf("receiver counted %d restores, want 1", st.SnapshotsRestored)
			}
			if got := rcv.Cursor(); got != 42 {
				t.Fatalf("cursor = %d after restore, want 42", got)
			}
		})
	}
}

// TestTornSnapshotRestoreKeepsOldStateQueryable runs the same fault
// against a supervised replica: a replica holding committed state is offered an
// unservable tail, the first snapshot transfer is torn mid-stream, and
// the replica's prior state must remain fully queryable until a
// complete transfer installs — then the retry converges to the
// mirror's full state.
func TestTornSnapshotRestoreKeepsOldStateQueryable(t *testing.T) {
	encs := tpccEncoded(2000, 128)
	half := len(encs) / 2
	mirror := directNode(t, encs)
	defer mirror.Close()
	oldRef := directNode(t, encs[:half])
	defer oldRef.Close()

	// The replica already holds the first half of the stream.
	sup, rcv := supervisedReceiver(t, metrics.NewRegistry(), encs[:half])
	ln := listen(t)
	done, _ := serveLoop(ln, rcv)

	// Measure the snapshot so the cut lands mid-stream no matter how
	// large the checkpoint is.
	src := &htap.NodeSnapshotSource{N: mirror}
	_, size, rc, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	cut := int64(28+28) + size/2

	s := mustSender(t, ship.SenderConfig{
		Dial: ship.FaultDialer(dialer(ln.Addr().String()), func(i int) ship.FaultOpts {
			if i == 0 {
				return ship.FaultOpts{CutWriteAfter: cut}
			}
			return ship.FaultOpts{}
		}),
		Schema:      tpccSchema(),
		Window:      8,
		MaxAttempts: 1,
		Metrics:     ship.NewMetrics(metrics.NewRegistry()),
		Snapshot:    src,
	})
	// Offering an epoch past the replica's cursor forces the snapshot;
	// the first transfer tears mid-stream.
	tail := encs[half+len(encs)/4:]
	if err := s.Send(&tail[0]); err == nil {
		if st := s.Stats(); st.Snapshots != 0 {
			t.Fatalf("torn attempt completed a snapshot (%d)", st.Snapshots)
		}
	}

	// The torn transfer must leave the replica's prior state intact and
	// queryable — same cursor, same contents.
	if got := sup.NextSeq(); got != uint64(half) {
		t.Fatalf("replica cursor moved to %d after torn transfer, want %d", got, half)
	}
	if st := rcv.Stats(); st.SnapshotsRestored != 0 {
		t.Fatalf("receiver counted %d restores after torn transfer", st.SnapshotsRestored)
	}
	assertSameState(t, sup.Node(), oldRef)

	// The clean retry re-bases the replica and the remaining tail rides
	// the normal stream (or is retired under the snapshot's cursor).
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tail); i++ {
		if err := s.Send(&tail[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, "receiver")
	if st := rcv.Stats(); st.SnapshotsRestored != 1 {
		t.Fatalf("receiver counted %d restores, want 1", st.SnapshotsRestored)
	}
	assertSameState(t, sup.Node(), mirror)
}
