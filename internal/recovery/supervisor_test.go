package recovery

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/wal"
	"aets/internal/workload"
)

const supWarehouses = 2

func supPlan() *grouping.Plan {
	gen := workload.NewTPCC(supWarehouses)
	return grouping.Build(htap.TPCCRates(1000), workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.05, MinPts: 2})
}

func supTables() []wal.TableID {
	return workload.TableIDs(workload.NewTPCC(supWarehouses).Tables())
}

// supStream generates the test workload: the raw transactions (for the
// serial reference) and their encoded epochs.
func supStream(tb testing.TB, txnCount, epochSize int) ([]wal.Txn, []epoch.Encoded) {
	tb.Helper()
	p := primary.New(workload.NewTPCC(supWarehouses), 11)
	txns := p.GenerateTxns(txnCount)
	return txns, epoch.EncodeAll(epoch.MustSplit(txns, epochSize))
}

// supEnv is one supervisor instance over a spool and checkpoint dir.
type supEnv struct {
	spool *Spool
	mgr   *Manager
	sup   *Supervisor
}

func openSup(tb testing.TB, spoolDir, ckptDir string, mutate func(*Config)) *supEnv {
	tb.Helper()
	reg := metrics.NewRegistry()
	spool, err := OpenSpool(SpoolConfig{Dir: spoolDir, Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := OpenManager(ckptDir, 0, reg)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{
		Kind:          htap.KindAETS,
		Plan:          supPlan(),
		Node:          htap.Options{Workers: 2, Metrics: reg},
		Spool:         spool,
		Checkpoints:   mgr,
		RetryBase:     time.Millisecond,
		RetryMax:      5 * time.Millisecond,
		ProbeInterval: -1, // tests drive Probe explicitly
		Metrics:       reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sup, err := NewSupervisor(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		tb.Fatal(err)
	}
	return &supEnv{spool: spool, mgr: mgr, sup: sup}
}

func (e *supEnv) close(tb testing.TB) {
	tb.Helper()
	if err := e.sup.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := e.spool.Close(); err != nil {
		tb.Fatal(err)
	}
}

func (e *supEnv) assertReference(tb testing.TB, txns []wal.Txn) {
	tb.Helper()
	want := memtable.New()
	reference.Apply(want, txns)
	node := e.sup.Node()
	if node == nil {
		tb.Fatal("no live node")
	}
	node.Drain()
	if err := reference.Equal(want, node.Memtable(), supTables()); err != nil {
		tb.Fatalf("state diverged from reference: %v", err)
	}
}

// TestSupervisorRestoreAcrossRestart feeds half the stream, checkpoints,
// feeds the rest, stops without a final checkpoint, and restarts: the
// node must come back via checkpoint + spool tail, reference-equal, and
// report the right resume cursor.
func TestSupervisorRestoreAcrossRestart(t *testing.T) {
	spoolDir, ckptDir := t.TempDir(), t.TempDir()
	txns, encs := supStream(t, 1200, 100)
	half := len(encs) / 2

	env := openSup(t, spoolDir, ckptDir, nil)
	for i := range encs[:half] {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.sup.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(encs); i++ {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	env.close(t) // no final checkpoint: the tail lives only in the spool

	env = openSup(t, spoolDir, ckptDir, nil)
	defer env.close(t)
	if got := env.sup.NextSeq(); got != uint64(len(encs)) {
		t.Fatalf("resume cursor %d, want %d", got, len(encs))
	}
	if st := env.sup.State(); st != StateRunning {
		t.Fatalf("state %s after restart, want running", st)
	}
	env.assertReference(t, txns)
}

// TestSupervisorUpgradeResumesFromCheckpoint is the upgrade rule end to
// end: a replica restarted on a build whose frame version moved on finds
// its spool stamped 4, the version whose BEGIN and DML entries carry
// their txn ID and timestamp. The spool truncates to nothing, the newest
// checkpoint (rows, not WAL) restores its cursor, and the epochs a
// primary re-ships from that cursor bring the node to the digest of the
// serial reference.
func TestSupervisorUpgradeResumesFromCheckpoint(t *testing.T) {
	spoolDir, ckptDir := t.TempDir(), t.TempDir()
	txns, encs := supStream(t, 1200, 100)
	half := len(encs) / 2

	env := openSup(t, spoolDir, ckptDir, nil)
	for i := range encs {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
		if i == half-1 {
			if err := env.sup.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	env.close(t)

	segs, err := filepath.Glob(filepath.Join(spoolDir, spoolPrefix+"*"+spoolSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no spool segments (%v)", err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, restampFrames(t, data, 4, 0), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	env = openSup(t, spoolDir, ckptDir, nil)
	defer env.close(t)
	if got := env.sup.NextSeq(); got != uint64(half) {
		t.Fatalf("resume cursor %d, want the checkpoint's %d", got, half)
	}
	for i := half; i < len(encs); i++ {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := memtable.New()
	reference.Apply(want, txns)
	node := env.sup.Node()
	node.Drain()
	if got, ref := node.StateDigest(), htap.StateDigest(want); got != ref {
		t.Fatalf("state digest %#x, serial reference %#x", got, ref)
	}
}

// TestSupervisorQuarantinesPoisonEpoch injects an epoch whose payload
// cannot be decoded. The supervisor must attribute the failure, write
// the sidecar, mark the node degraded — and keep serving the rest of
// the stream instead of crash-looping.
func TestSupervisorQuarantinesPoisonEpoch(t *testing.T) {
	spoolDir, ckptDir := t.TempDir(), t.TempDir()
	txns, encs := supStream(t, 600, 100)
	k := len(encs) / 2

	env := openSup(t, spoolDir, ckptDir, nil)
	defer env.close(t)
	for i := range encs[:k] {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Counts stay within the wire-level bounds (≤ len(Buf)) so the frame
	// survives transport and spool validation; the garbage buf fails only
	// when the node decodes its WAL entries.
	poison := &epoch.Encoded{
		Seq:          uint64(k),
		TxnCount:     3,
		EntryCount:   7,
		Buf:          []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x13, 0x37},
		LastCommitTS: encs[k-1].LastCommitTS,
	}
	if err := env.sup.Feed(poison); err != nil {
		t.Fatal(err)
	}

	// The decode failure surfaces asynchronously; the watchdog is off, so
	// probe until the supervisor has dealt with it.
	deadline := time.Now().Add(30 * time.Second)
	for env.sup.State() != StateDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("state %s, never degraded (stats %+v)", env.sup.State(), env.sup.Stats())
		}
		_ = env.sup.Probe()
		time.Sleep(time.Millisecond)
	}

	st := env.sup.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined %d epochs, want 1", st.Quarantined)
	}
	env.sup.mu.Lock()
	quarantinedK := env.sup.quarantined[uint64(k)]
	env.sup.mu.Unlock()
	if !quarantinedK {
		t.Fatalf("epoch %d not quarantined", k)
	}
	sidecars, _ := filepath.Glob(filepath.Join(spoolDir, quarantinePrefix+"*"))
	if len(sidecars) != 1 {
		t.Fatalf("%d sidecar files, want 1", len(sidecars))
	}

	// The rest of the stream continues past the hole (re-sequenced by one).
	for i := k; i < len(encs); i++ {
		shifted := encs[i]
		shifted.Seq++
		if err := env.sup.Feed(&shifted); err != nil {
			t.Fatalf("feed after quarantine: %v", err)
		}
	}
	if err := env.sup.Probe(); err != nil {
		t.Fatal(err)
	}
	if st := env.sup.State(); st != StateDegraded {
		t.Fatalf("state %s after continuing, want degraded", st)
	}
	env.assertReference(t, txns)

	h := env.sup.Health()
	if !h.Healthy || !h.Degraded || h.Supervisor != "degraded" || h.Quarantined != 1 {
		t.Fatalf("health %+v: degraded replica must stay healthy=true with degraded=true", h)
	}

	// A restart must remember the quarantine from the sidecar instead of
	// paying the failure budget again.
	env.close(t)
	env = openSup(t, spoolDir, ckptDir, nil)
	defer env.close(t)
	if st := env.sup.State(); st != StateDegraded {
		t.Fatalf("state %s after restart, want degraded (sidecar forgotten?)", st)
	}
	env.assertReference(t, txns)
}

// TestSupervisorFallsBackAcrossCorruptCheckpoint corrupts the newest
// checkpoint at rest: restore must fall back to the older one and
// rebuild the difference from the spool.
func TestSupervisorFallsBackAcrossCorruptCheckpoint(t *testing.T) {
	spoolDir, ckptDir := t.TempDir(), t.TempDir()
	txns, encs := supStream(t, 900, 100)

	env := openSup(t, spoolDir, ckptDir, nil)
	third := len(encs) / 3
	for i := range encs[:third] {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.sup.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := third; i < 2*third; i++ {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.sup.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 2 * third; i < len(encs); i++ {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	env.close(t)

	newest, err := env.mgr.Newest()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	env = openSup(t, spoolDir, ckptDir, nil)
	defer env.close(t)
	if st := env.sup.Stats(); st.Fallbacks < 1 {
		t.Fatalf("fallbacks %d, want ≥ 1 (corrupt checkpoint silently used?)", st.Fallbacks)
	}
	if st := env.sup.State(); st != StateRunning {
		t.Fatalf("state %s, want running", st)
	}
	env.assertReference(t, txns)
}

// TestSupervisorCheckpointCompactsSpool cuts more checkpoints than the
// retention count: once a full retention window of cursors is known,
// the scheduler compacts the spool up to the OLDEST retained cursor —
// reclaiming disk without waiting for whole segments to age out, while
// keeping exactly the range a fallback across corrupt checkpoints
// could still need. A restart must then replay from the compacted
// spool and stay reference-equal.
func TestSupervisorCheckpointCompactsSpool(t *testing.T) {
	spoolDir, ckptDir := t.TempDir(), t.TempDir()
	txns, encs := supStream(t, 1500, 100)
	retain := 0
	var cursors []uint64

	env := openSup(t, spoolDir, ckptDir, nil)
	retain = env.mgr.Retain()
	rounds := retain + 2 // strictly more checkpoints than retained
	per := len(encs) / rounds
	for r := 0; r < rounds; r++ {
		for i := r * per; i < (r+1)*per; i++ {
			if err := env.sup.Feed(&encs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := env.sup.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cursors = append(cursors, env.sup.NextSeq())
	}
	// The spool floor must sit at the oldest RETAINED checkpoint's
	// cursor: compacting further would strand the fallback checkpoints,
	// compacting less would leak disk.
	wantFirst := cursors[len(cursors)-retain]
	first, next, ok := env.spool.Range()
	if !ok || first != wantFirst || next != uint64(rounds*per) {
		t.Fatalf("spool range [%d,%d) ok=%v, want [%d,%d)", first, next, ok, wantFirst, rounds*per)
	}
	// Feed the remaining tail (not checkpointed) and restart: restore is
	// newest checkpoint + compacted spool tail.
	for i := rounds * per; i < len(encs); i++ {
		if err := env.sup.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	env.close(t)

	env = openSup(t, spoolDir, ckptDir, nil)
	defer env.close(t)
	if got := env.sup.NextSeq(); got != uint64(len(encs)) {
		t.Fatalf("resume cursor %d, want %d", got, len(encs))
	}
	env.assertReference(t, txns)
}

// TestNodeDoesNotWaitForSupervisorLock holds the supervisor's lock, as a
// feed or a checkpoint does for its whole duration, and requires Node —
// the read path of every routed query — to answer anyway.
func TestNodeDoesNotWaitForSupervisorLock(t *testing.T) {
	env := openSup(t, t.TempDir(), t.TempDir(), nil)
	defer env.close(t)
	env.sup.mu.Lock()
	got := make(chan *htap.Node, 1)
	go func() { got <- env.sup.Node() }()
	select {
	case n := <-got:
		env.sup.mu.Unlock()
		if n == nil {
			t.Fatal("Node() = nil on a started supervisor")
		}
	case <-time.After(time.Second):
		env.sup.mu.Unlock()
		<-got
		t.Fatal("Node() blocked behind the supervisor's lock")
	}
}

// TestStatusReadsDoNotWaitForSupervisorLock is the same check for the
// status reads: Stats and Health answer /varz and /healthz scrapes, and
// NeedSnapshot answers the receiver's WELCOME. None of them may queue
// behind a feed or a whole checkpoint.
func TestStatusReadsDoNotWaitForSupervisorLock(t *testing.T) {
	env := openSup(t, t.TempDir(), t.TempDir(), nil)
	defer env.close(t)
	for name, read := range map[string]func(){
		"Stats":        func() { env.sup.Stats() },
		"Health":       func() { env.sup.Health() },
		"NeedSnapshot": func() { env.sup.NeedSnapshot() },
	} {
		env.sup.mu.Lock()
		done := make(chan struct{})
		go func() { read(); close(done) }()
		select {
		case <-done:
			env.sup.mu.Unlock()
		case <-time.After(time.Second):
			env.sup.mu.Unlock()
			<-done
			t.Fatalf("%s blocked behind the supervisor's lock", name)
		}
	}
}
