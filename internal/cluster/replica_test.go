package cluster

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"aets/internal/htap"
	"aets/internal/metrics"
)

// TestAdmitZeroBlockAllocs pins the zero-block admission to the
// Admission it returns plus the footprint slice: the roster walk itself
// allocates nothing at any fleet size.
func TestAdmitZeroBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc counts are meaningless")
	}
	for _, n := range []int{1, 3, 8, 64} {
		r, reps, m := testRouter(t, n)
		for _, rep := range reps {
			rep.AdvanceTo(100)
		}
		allocs := testing.AllocsPerRun(200, func() {
			adm, err := r.Admit(50, 1)
			if err != nil {
				t.Fatal(err)
			}
			adm.Done()
		})
		if allocs > 2 {
			t.Fatalf("%d replicas: zero-block Admit allocates %.1f objects, want ≤ 2", n, allocs)
		}
		if w := m.RouteWaits.Load(); w != 0 {
			t.Fatalf("%d replicas: %d admissions waited", n, w)
		}
	}
}

// admitResult is one parked admission's outcome.
type admitResult struct {
	adm *Admission
	err error
}

// parkAdmits starts n admissions at qts and returns once the router has
// sent every one of them to wait (RouteWaits reached want).
func parkAdmits(t *testing.T, r *Router, m *Metrics, qts int64, n int, want int64) chan admitResult {
	t.Helper()
	out := make(chan admitResult, n)
	for i := 0; i < n; i++ {
		go func() {
			adm, err := r.Admit(qts, 1)
			out <- admitResult{adm, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.RouteWaits.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d admissions parked", m.RouteWaits.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case res := <-out:
		t.Fatalf("admission at qts %d returned before the watermark covered it: %+v", qts, res)
	case <-time.After(20 * time.Millisecond):
	}
	return out
}

// collectAdmits receives n results within a deadline.
func collectAdmits(t *testing.T, out chan admitResult, n int) []admitResult {
	t.Helper()
	res := make([]admitResult, 0, n)
	for len(res) < n {
		select {
		case r := <-out:
			res = append(res, r)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d parked admissions never returned", n-len(res), n)
		}
	}
	return res
}

// TestParkedAdmitsWakeOnPublishSwapAndClose parks eight admissions on a
// supervised replica whose watermark trails them, three times over: a fed
// epoch admits them; a snapshot restore swapping the node mid-wait admits
// them on the new node with no failover; closing the supervisor fails
// them. No goroutine outlives the replica.
func TestParkedAdmitsWakeOnPublishSwapAndClose(t *testing.T) {
	const n = 8
	encs := rowEpochs(rowTxn(1, 10, 1, 'x'), rowTxn(2, 20, 1, 'y'), rowTxn(3, 30, 1, 'z'))
	src := startSupervisor(t)
	for i := range encs {
		if err := src.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	src.Node().Drain()
	baseline := runtime.NumGoroutine()

	sup := startSupervisor(t)
	if err := sup.Feed(&encs[0]); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(metrics.NewRegistry())
	members := NewMembership(nil)
	if err := members.Add(NewSupervisorReplica("a", sup)); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Members: members, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	admitted := func(res []admitResult, ts int64, val byte) {
		t.Helper()
		for _, a := range res {
			if a.err != nil {
				t.Fatalf("qts %d: %v", ts, a.err)
			}
			if !a.adm.Waited || a.adm.Failovers != 0 || a.adm.Replica.VisibleTS() < ts {
				t.Fatalf("qts %d: admission %+v at visible ts %d, want one wait and no failover",
					ts, a.adm, a.adm.Replica.VisibleTS())
			}
			row, ok, err := a.adm.Replica.(Snapshotter).Query(a.adm.TS, 1).Get(1, 1)
			if err != nil || !ok || row.Columns[1][0] != val {
				t.Fatalf("qts %d: row %+v ok=%v err=%v, want %c", ts, row, ok, err, val)
			}
			a.adm.Done()
		}
	}

	// A fed epoch publishes the watermark the admissions wait for.
	out := parkAdmits(t, r, m, 20, n, n)
	if err := sup.Feed(&encs[1]); err != nil {
		t.Fatal(err)
	}
	admitted(collectAdmits(t, out, n), 20, 'y')

	// A snapshot restore swaps the node under the waiters: they move to
	// the new node instead of failing over.
	out = parkAdmits(t, r, m, 30, n, 2*n)
	cursor, size, rc, err := (&htap.NodeSnapshotSource{N: src.Node()}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.RestoreSnapshot(cursor, size, rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	admitted(collectAdmits(t, out, n), 30, 'z')

	// Closing the supervisor fails the waiters: there is nowhere left to
	// route them.
	out = parkAdmits(t, r, m, 40, n, 3*n)
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	for _, a := range collectAdmits(t, out, n) {
		if a.err == nil {
			t.Fatalf("qts 40 admitted on a closed replica: %+v", a.adm)
		}
		if !errors.Is(a.err, ErrNoReplicas) && !strings.Contains(a.err.Error(), "failovers") {
			t.Fatalf("qts 40 after Close: %v, want ErrNoReplicas or the failover error", a.err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the replica started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryAfterSupervisorCloses: a read admitted before its replica's
// supervisor closed gets a snapshot whose reads fail, not a nil node.
func TestQueryAfterSupervisorCloses(t *testing.T) {
	encs := rowEpochs(rowTxn(1, 10, 1, 'x'))
	sup := startSupervisor(t)
	if err := sup.Feed(&encs[0]); err != nil {
		t.Fatal(err)
	}
	sup.Node().Drain()
	members := NewMembership(nil)
	if err := members.Add(NewSupervisorReplica("a", sup)); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Members: members, Metrics: NewMetrics(metrics.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	adm, err := r.Admit(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Done()
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	sn := adm.Replica.(Snapshotter).Query(adm.TS, 1)
	if _, _, err := sn.Get(1, 1); err == nil {
		t.Fatal("Get on a replica closed after admission succeeded")
	}
	if _, err := sn.Count(1); err == nil {
		t.Fatal("Count on a replica closed after admission succeeded")
	}
}
