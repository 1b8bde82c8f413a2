package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/query"
	"aets/internal/recovery"
	"aets/internal/wal"
)

// testRouter builds a router over n sim replicas with fresh metrics.
func testRouter(t *testing.T, n int) (*Router, []*SimReplica, *Metrics) {
	t.Helper()
	m := NewMetrics(metrics.NewRegistry())
	members := NewMembership(nil)
	reps := make([]*SimReplica, n)
	for i := range reps {
		reps[i] = NewSimReplica(string(rune('a' + i)))
		if err := members.Add(reps[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewRouter(RouterConfig{Members: members, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	return r, reps, m
}

func TestAdmitZeroBlockPicksSatisfiedLeastLoaded(t *testing.T) {
	r, reps, m := testRouter(t, 3)
	reps[0].AdvanceTo(100)
	reps[1].AdvanceTo(200)
	reps[2].AdvanceTo(50)

	// Only a and b satisfy qts=80; c (watermark 50) must never serve it.
	adm, err := r.Admit(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id := adm.Replica.ID(); id == "c" || adm.Waited || adm.TS != 80 {
		t.Fatalf("admission %+v on %s, want zero-block hit on a or b at ts 80", adm, id)
	}
	// The first pick now carries load 1: the next query must spread to
	// the other satisfied replica.
	adm2, err := r.Admit(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id := adm2.Replica.ID(); id == "c" || id == adm.Replica.ID() {
		t.Fatalf("second admission went to %s (first took %s), want the other satisfied replica", id, adm.Replica.ID())
	}
	adm.Done()
	adm2.Done()
	if got := m.RouteHits.Load(); got != 2 {
		t.Fatalf("hits %d, want 2", got)
	}
	if got := m.RouteWaits.Load(); got != 0 {
		t.Fatalf("waits %d, want 0", got)
	}
	// Done released the load slots: both satisfied replicas are candidates
	// again, and c is still excluded.
	adm3, _ := r.Admit(80, 1)
	if adm3.Replica.ID() == "c" {
		t.Fatal("post-release admission went to c, whose watermark is below qts")
	}
	adm3.Done()
}

func TestAdmitFreshestRead(t *testing.T) {
	r, reps, m := testRouter(t, 2)
	reps[0].AdvanceTo(10)
	reps[1].AdvanceTo(500)

	// qts ≤ 0 never blocks: least-loaded live replica, snapshot pinned to
	// its current watermark.
	adm, err := r.Admit(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Done()
	if adm.Waited {
		t.Fatal("freshest read must not wait")
	}
	if adm.TS != adm.Replica.VisibleTS() && adm.TS > adm.Replica.VisibleTS() {
		t.Fatalf("pinned ts %d ahead of replica watermark %d", adm.TS, adm.Replica.VisibleTS())
	}
	if m.RouteHits.Load() != 1 {
		t.Fatalf("hits %d, want 1", m.RouteHits.Load())
	}
}

func TestAdmitWaitsOnFreshestWhenNoneSatisfies(t *testing.T) {
	r, reps, m := testRouter(t, 3)
	reps[0].AdvanceTo(10)
	reps[1].AdvanceTo(40) // freshest: the wait lands here
	reps[2].AdvanceTo(20)

	done := make(chan *Admission, 1)
	go func() {
		adm, err := r.Admit(100, 1)
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		done <- adm
	}()
	// The admission must be parked, not failed.
	select {
	case <-done:
		t.Fatal("admission returned before the watermark covered qts")
	case <-time.After(20 * time.Millisecond):
	}
	reps[1].AdvanceTo(100)
	select {
	case adm := <-done:
		if adm == nil {
			t.Fatal("admission failed")
		}
		if adm.Replica.ID() != "b" || !adm.Waited {
			t.Fatalf("admission %+v, want wait on b", adm)
		}
		if adm.Replica.VisibleTS() < adm.TS {
			t.Fatalf("invariant broken: watermark %d < ts %d", adm.Replica.VisibleTS(), adm.TS)
		}
		adm.Done()
	case <-time.After(5 * time.Second):
		t.Fatal("admission never woke after the advance")
	}
	if m.RouteWaits.Load() != 1 || m.RouteHits.Load() != 0 {
		t.Fatalf("waits=%d hits=%d, want 1/0", m.RouteWaits.Load(), m.RouteHits.Load())
	}
}

func TestAdmitFailsOverWhenWaitTargetDies(t *testing.T) {
	r, reps, m := testRouter(t, 2)
	reps[0].AdvanceTo(50) // freshest: first wait target
	reps[1].AdvanceTo(10)

	done := make(chan *Admission, 1)
	go func() {
		adm, err := r.Admit(100, 1)
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		done <- adm
	}()
	time.Sleep(10 * time.Millisecond)
	// Kill the wait target: the admission must fail over to b and park
	// there, then admit when b advances.
	reps[0].SetHealthy(false)
	time.Sleep(10 * time.Millisecond)
	reps[1].AdvanceTo(100)
	select {
	case adm := <-done:
		if adm == nil {
			t.Fatal("admission failed")
		}
		if adm.Replica.ID() != "b" || adm.Failovers == 0 {
			t.Fatalf("admission %+v, want failover to b", adm)
		}
		adm.Done()
	case <-time.After(5 * time.Second):
		t.Fatal("admission hung on a dead replica")
	}
	if m.RouteFailovers.Load() == 0 {
		t.Fatal("failover not counted")
	}
}

func TestAdmitNoReplicas(t *testing.T) {
	r, reps, m := testRouter(t, 1)
	reps[0].SetHealthy(false)
	if _, err := r.Admit(10, 1); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err %v, want ErrNoReplicas", err)
	}
	if m.RouteErrors.Load() != 1 {
		t.Fatalf("errors %d, want 1", m.RouteErrors.Load())
	}
}

func TestMembershipRejectsDuplicate(t *testing.T) {
	members := NewMembership(nil)
	rep := NewSimReplica("r")
	if err := members.Add(rep); err != nil {
		t.Fatal(err)
	}
	if err := members.Add(rep); err == nil {
		t.Fatal("duplicate Add must fail")
	}
}

// downReplica lets a test take a real replica out of routing without
// closing it.
type downReplica struct {
	*SupervisorReplica
	down atomic.Bool
}

func (d *downReplica) Healthy() bool { return !d.down.Load() && d.SupervisorReplica.Healthy() }

// TestRouterQueryEndToEnd routes real snapshot reads over two supervised
// replicas at different replay points and checks the rows come from a
// replica that satisfies the snapshot — and that a replica whose
// supervisor has closed never serves one, even at a timestamp only it
// ever covered.
func TestRouterQueryEndToEnd(t *testing.T) {
	encs := rowEpochs(rowTxn(1, 10, 1, 'x'), rowTxn(2, 20, 2, 'y'), rowTxn(3, 30, 1, 'z'), rowTxn(4, 40, 1, 'w'))
	feed := func(sup *recovery.Supervisor, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := sup.Feed(&encs[i]); err != nil {
				t.Fatal(err)
			}
		}
		sup.Node().Drain()
	}
	// fresh has the first three epochs, stale only the first.
	freshSup, staleSup := startSupervisor(t), startSupervisor(t)
	feed(freshSup, 0, 3)
	feed(staleSup, 0, 1)

	m := NewMetrics(metrics.NewRegistry())
	members := NewMembership(nil)
	fresh := &downReplica{SupervisorReplica: NewSupervisorReplica("fresh", freshSup)}
	stale := NewSupervisorReplica("stale", staleSup)
	if err := members.Add(fresh); err != nil {
		t.Fatal(err)
	}
	if err := members.Add(stale); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Members: members, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	type routed struct {
		s   *query.Snapshot
		adm *Admission
		err error
	}
	read := func(qts int64) routed {
		adm, err := r.Admit(qts, 1)
		if err != nil {
			return routed{err: err}
		}
		return routed{adm.Replica.(Snapshotter).Query(adm.TS, 1), adm, nil}
	}
	// check asserts a routed read of row 1 landed on wantID ("" = any)
	// and saw the value want, then releases its admission.
	check := func(qts int64, got routed, wantID string, want byte) {
		t.Helper()
		if got.err != nil {
			t.Fatalf("qts=%d: %v", qts, got.err)
		}
		defer got.adm.Done()
		if wantID != "" && got.adm.Replica.ID() != wantID {
			t.Fatalf("qts=%d routed to %s, want %s", qts, got.adm.Replica.ID(), wantID)
		}
		row, ok, err := got.s.Get(1, 1)
		if err != nil || !ok || row.Columns[1][0] != want {
			t.Fatalf("qts=%d: row %+v ok=%v err=%v, want %c", qts, row, ok, err, want)
		}
	}

	// qts=30 is only visible on fresh: the router must not pick stale.
	check(30, read(30), "fresh", 'z')
	// qts=10 is visible on both: load spreading may pick either, but the
	// snapshot must read the ts-10 version wherever it lands.
	check(10, read(10), "", 'x')
	if m.RouteHits.Load() != 2 || m.RouteWaits.Load() != 0 {
		t.Fatalf("hits=%d waits=%d, want 2/0", m.RouteHits.Load(), m.RouteWaits.Load())
	}

	// stale overtakes fresh: ts 40 is one only it has ever covered.
	feed(staleSup, 1, 4)
	check(40, read(40), "stale", 'w')

	// Once its supervisor closes, stale reports no node: unhealthy, and
	// no watermark for the router to mistake for coverage.
	if err := staleSup.Close(); err != nil {
		t.Fatal(err)
	}
	if stale.Healthy() || stale.VisibleTS() != 0 {
		t.Fatalf("closed replica: healthy=%v visible=%d, want false/0", stale.Healthy(), stale.VisibleTS())
	}
	// With fresh marked down, the closed replica is no fallback: the
	// admission errors instead of reading from it.
	fresh.down.Store(true)
	if got := read(40); !errors.Is(got.err, ErrNoReplicas) {
		t.Fatalf("qts=40 with only a closed replica: err %v, want ErrNoReplicas", got.err)
	}
	fresh.down.Store(false)
	// With fresh back, the read parks on it until it covers ts 40 itself.
	done := make(chan routed, 1)
	go func() { done <- read(40) }()
	select {
	case got := <-done:
		t.Fatalf("qts=40 returned before any live replica covered it: %+v", got)
	case <-time.After(20 * time.Millisecond):
	}
	feed(freshSup, 3, 4)
	select {
	case got := <-done:
		check(40, got, "fresh", 'w')
	case <-time.After(5 * time.Second):
		t.Fatal("admission never woke after fresh covered ts 40")
	}
	if m.RouteWaits.Load() != 1 {
		t.Fatalf("waits=%d, want 1 (the parked qts=40 read)", m.RouteWaits.Load())
	}
}

// rowTxn is a one-entry transaction writing val to key of table 1.
func rowTxn(id uint64, ts int64, key uint64, val byte) wal.Txn {
	return wal.Txn{ID: id, CommitTS: ts, Entries: []wal.Entry{{
		Type: wal.TypeUpdate, TxnID: id, Timestamp: ts, Table: 1, RowKey: key,
		Columns: []wal.Column{{ID: 1, Value: []byte{val}}},
	}}}
}

// rowEpochs encodes txns one per epoch.
func rowEpochs(txns ...wal.Txn) []epoch.Encoded {
	return epoch.EncodeAll(epoch.MustSplit(txns, 1))
}

// startSupervisor starts a supervised AETS replica of table 1 over
// temporary directories; the test's cleanup closes it.
func startSupervisor(t *testing.T) *recovery.Supervisor {
	t.Helper()
	reg := metrics.NewRegistry()
	spool, err := recovery.OpenSpool(recovery.SpoolConfig{
		Dir: t.TempDir(), Policy: recovery.SyncNever, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := recovery.OpenManager(t.TempDir(), 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := recovery.NewSupervisor(recovery.Config{
		Kind:        htap.KindAETS,
		Plan:        grouping.SingleGroup([]wal.TableID{1}),
		Node:        htap.Options{Workers: 2, Metrics: reg},
		Spool:       spool,
		Checkpoints: mgr,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sup.Close()
		spool.Close()
	})
	return sup
}
