package replay

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"aets/internal/alloc"
	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/wal"
	"aets/internal/workload"
)

// buildTPCCPlan reproduces the paper's TPC-C grouping (§VI-A3): one hot
// group {district, stock, customer, order} at rate r, one hot group
// {order_line} at rate 2r, and singleton cold groups.
func buildTPCCPlan(gen workload.Generator, r float64) *grouping.Plan {
	rates := map[wal.TableID]float64{
		workload.TPCCDistrict: r, workload.TPCCStock: r,
		workload.TPCCCustomer: r, workload.TPCCOrder: r,
		workload.TPCCOrderLine: 2 * r,
	}
	return grouping.Build(rates, workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.05, MinPts: 2})
}

func runEngine(t *testing.T, cfg Config, plan *grouping.Plan, txns []wal.Txn, epochSize int) *memtable.Memtable {
	t.Helper()
	mt := memtable.New()
	e := New("AETS", mt, plan, cfg)
	e.Start()
	defer e.Stop()
	for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, epochSize)) {
		enc := enc
		feed(t, e, &enc)
	}
	e.Drain()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	return mt
}

func feed(t *testing.T, e *Engine, enc *epoch.Encoded) {
	t.Helper()
	if err := e.Feed(enc); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMatchesSerialReference(t *testing.T) {
	gen := workload.NewTPCC(4)
	p := primary.New(gen, 1)
	txns := p.GenerateTxns(3000)

	ref := memtable.New()
	reference.Apply(ref, txns)

	plan := buildTPCCPlan(gen, 1000)
	tables := workload.TableIDs(gen.Tables())
	for _, depth := range depths {
		mt := runEngine(t, Config{Workers: 8, TwoStage: true, Pipeline: depth}, plan, txns, 256)
		if err := reference.Equal(ref, mt, tables); err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		if err := reference.CheckChains(mt, tables); err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
	}
}

// depths are the pipeline depths the correctness tests run at: 1, where
// epoch N+1 is dispatched only after N has published, and 2, where
// consecutive epochs overlap.
var depths = []int{1, 2}

func TestEngineSingleGroupTPLR(t *testing.T) {
	gen := workload.NewTPCC(2)
	p := primary.New(gen, 2)
	txns := p.GenerateTxns(1500)

	ref := memtable.New()
	reference.Apply(ref, txns)

	plan := grouping.SingleGroup(workload.TableIDs(gen.Tables()))
	mt := runEngine(t, Config{Workers: 8, TwoStage: false, Pipeline: 2}, plan, txns, 128)
	if err := reference.Equal(ref, mt, workload.TableIDs(gen.Tables())); err != nil {
		t.Fatal(err)
	}
}

func TestEngineVariousWorkerCounts(t *testing.T) {
	gen := workload.NewTPCC(1)
	p := primary.New(gen, 3)
	txns := p.GenerateTxns(600)
	ref := memtable.New()
	reference.Apply(ref, txns)
	for _, depth := range depths {
		for _, workers := range []int{1, 2, 3, 16} {
			plan := buildTPCCPlan(gen, 100)
			mt := runEngine(t, Config{Workers: workers, TwoStage: true, Pipeline: depth}, plan, txns, 100)
			if err := reference.Equal(ref, mt, workload.TableIDs(gen.Tables())); err != nil {
				t.Fatalf("depth=%d workers=%d: %v", depth, workers, err)
			}
		}
	}
}

func TestVisibilityAfterDrain(t *testing.T) {
	gen := workload.NewTPCC(2)
	p := primary.New(gen, 4)
	txns := p.GenerateTxns(500)
	lastTS := txns[len(txns)-1].CommitTS

	plan := buildTPCCPlan(gen, 1000)
	mt := memtable.New()
	e := New("AETS", mt, plan, Config{Workers: 4, TwoStage: true, Pipeline: 2})
	e.Start()
	defer e.Stop()
	for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, 128)) {
		enc := enc
		feed(t, e, &enc)
	}
	e.Drain()

	done := make(chan struct{})
	go func() {
		e.WaitVisible(lastTS, []wal.TableID{workload.TPCCOrderLine, workload.TPCCHistory})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitVisible did not return after Drain")
	}
	if e.GlobalTS() < lastTS {
		t.Fatalf("global ts %d < last commit %d", e.GlobalTS(), lastTS)
	}
}

func TestHotVisibleBeforeColdWithinEpoch(t *testing.T) {
	// Construct an epoch where a huge cold-table transaction precedes a
	// small hot-table transaction; the hot data must become visible without
	// waiting for the cold replay (the Fig 1 motivating example).
	hot, cold := wal.TableID(1), wal.TableID(2)
	plan := grouping.Build(map[wal.TableID]float64{hot: 1000},
		[]wal.TableID{hot, cold}, grouping.Options{PerTable: true})

	var txns []wal.Txn
	// One fat cold transaction (many entries), then a tiny hot one.
	fat := wal.Txn{ID: 1, CommitTS: 10}
	for k := uint64(1); k <= 20000; k++ {
		fat.Entries = append(fat.Entries, wal.Entry{
			Type: wal.TypeUpdate, TxnID: 1, Table: cold, RowKey: k,
			Columns: []wal.Column{{ID: 1, Value: make([]byte, 64)}},
		})
	}
	txns = append(txns, fat)
	txns = append(txns, wal.Txn{ID: 2, CommitTS: 20, Entries: []wal.Entry{{
		Type: wal.TypeUpdate, TxnID: 2, Table: hot, RowKey: 1,
		Columns: []wal.Column{{ID: 1, Value: []byte("fresh")}},
	}}})

	mt := memtable.New()
	e := New("AETS", mt, plan, Config{Workers: 2, TwoStage: true, Pipeline: 2})
	e.Start()
	defer e.Stop()

	start := time.Now()
	for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, 2)) {
		enc := enc
		feed(t, e, &enc)
	}
	e.WaitVisible(20, []wal.TableID{hot})
	hotDelay := time.Since(start)
	e.WaitVisible(20, []wal.TableID{cold})
	coldDelay := time.Since(start)
	e.Drain()

	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	if hotDelay >= coldDelay {
		t.Fatalf("hot table not visible before cold: hot=%v cold=%v", hotDelay, coldDelay)
	}
	v := mt.Table(hot).Get(1).Visible(20)
	if v == nil || string(v.Columns[0].Value) != "fresh" {
		t.Fatalf("hot row wrong after visibility: %+v", v)
	}
}

func TestHeartbeatUnblocksIdleGroups(t *testing.T) {
	hot, cold := wal.TableID(1), wal.TableID(2)
	plan := grouping.Build(map[wal.TableID]float64{hot: 10},
		[]wal.TableID{hot, cold}, grouping.Options{PerTable: true})
	mt := memtable.New()
	e := New("AETS", mt, plan, Config{Workers: 2, TwoStage: true, Pipeline: 2})
	e.Start()
	defer e.Stop()

	// Heartbeat with no transactions must advance visibility everywhere.
	feed(t, e, &epoch.Encoded{Seq: 0, LastCommitTS: 500})
	done := make(chan struct{})
	go func() {
		e.WaitVisible(500, []wal.TableID{hot, cold})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat did not unblock waiters")
	}
}

func TestPlanSwapAtEpochBoundary(t *testing.T) {
	gen := workload.NewTPCC(1)
	p := primary.New(gen, 6)
	txns := p.GenerateTxns(1000)
	ref := memtable.New()
	reference.Apply(ref, txns)

	mt := memtable.New()
	plan1 := buildTPCCPlan(gen, 100)
	e := New("AETS", mt, plan1, Config{Workers: 4, TwoStage: true, Pipeline: 2})
	e.Start()
	defer e.Stop()

	encs := epoch.EncodeAll(epoch.MustSplit(txns, 100))
	for i := range encs {
		if i == len(encs)/2 {
			// Swap to per-table singleton groups mid-stream.
			e.SetPlan(grouping.Build(map[wal.TableID]float64{
				workload.TPCCOrderLine: 500, workload.TPCCStock: 400,
			}, workload.TableIDs(gen.Tables()), grouping.Options{PerTable: true}))
		}
		feed(t, e, &encs[i])
	}
	e.Drain()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := reference.Equal(ref, mt, workload.TableIDs(gen.Tables())); err != nil {
		t.Fatal(err)
	}
	if len(e.Plan().Groups) != len(gen.Tables()) {
		t.Fatalf("plan swap not applied: %d groups", len(e.Plan().Groups))
	}
}

func TestBreakdownAccumulates(t *testing.T) {
	gen := workload.NewTPCC(1)
	p := primary.New(gen, 7)
	txns := p.GenerateTxns(400)
	var bd metrics.Breakdown
	plan := buildTPCCPlan(gen, 100)
	runEngine(t, Config{Workers: 2, TwoStage: true, Breakdown: &bd, Pipeline: 2}, plan, txns, 100)
	d, r, c := bd.Shares()
	if d <= 0 || r <= 0 || c <= 0 {
		t.Fatalf("breakdown shares: %v %v %v", d, r, c)
	}
	if diff := d + r + c; diff < 0.999 || diff > 1.001 {
		t.Fatalf("shares sum to %v", diff)
	}
	// No threshold on the shares themselves: they are wall-clock ratios
	// and move with host load (the bench's traced replay.share_* metrics
	// carry that signal).
}

func TestUrgencyConfigRespected(t *testing.T) {
	gen := workload.NewTPCC(1)
	p := primary.New(gen, 8)
	txns := p.GenerateTxns(300)
	ref := memtable.New()
	reference.Apply(ref, txns)
	for _, depth := range depths {
		for _, u := range []alloc.UrgencyFunc{alloc.LogUrgency, func(r float64) float64 { return max(r, 1) }, alloc.NoURgency} {
			plan := buildTPCCPlan(gen, 5000)
			mt := runEngine(t, Config{Workers: 4, TwoStage: true, Urgency: u, Pipeline: depth}, plan, txns, 100)
			if err := reference.Equal(ref, mt, workload.TableIDs(gen.Tables())); err != nil {
				t.Fatalf("depth=%d: %v", depth, err)
			}
		}
	}
}

// TestCommittersExitOnPlanSwapAndStop pins the committers' lifecycle:
// every plan swap retires the old plan's committers and publisher before
// starting the new plan's, and Stop retires the last ones, so after Stop
// the engine has left no goroutine behind. The swaps alternate between
// plans of different group counts, so a leaked or reused queue would also
// misroute batches and show up in the reference comparison.
func TestCommittersExitOnPlanSwapAndStop(t *testing.T) {
	gen := workload.NewTPCC(1)
	txns := primary.New(gen, 10).GenerateTxns(1200)
	ref := memtable.New()
	reference.Apply(ref, txns)
	tables := workload.TableIDs(gen.Tables())
	perTable := grouping.Build(map[wal.TableID]float64{workload.TPCCOrderLine: 500},
		tables, grouping.Options{PerTable: true})

	base := runtime.NumGoroutine()
	mt := memtable.New()
	e := New("AETS", mt, buildTPCCPlan(gen, 100), Config{Workers: 2, TwoStage: true, Pipeline: 2})
	e.Start()
	encs := epoch.EncodeAll(epoch.MustSplit(txns, 100))
	for i := range encs {
		// Drain first, so each SetPlan lands as its own swap instead of
		// overwriting a pending one.
		switch i {
		case 3, 9:
			e.Drain()
			e.SetPlan(perTable)
		case 6:
			e.Drain()
			e.SetPlan(buildTPCCPlan(gen, 100))
		}
		feed(t, e, &encs[i])
	}
	e.Stop()
	if e.Plan() != perTable {
		t.Fatal("last plan swap not applied")
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := reference.Equal(ref, mt, tables); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before New", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGroupTSAdvancesMonotonically(t *testing.T) {
	gen := workload.NewTPCC(1)
	p := primary.New(gen, 9)
	txns := p.GenerateTxns(800)
	plan := buildTPCCPlan(gen, 100)
	mt := memtable.New()
	e := New("AETS", mt, plan, Config{Workers: 4, TwoStage: true, Pipeline: 2})
	e.Start()
	defer e.Stop()

	stop := make(chan struct{})
	violation := make(chan int64, 1)
	go func() {
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
				cur := e.GroupTS(workload.TPCCOrderLine)
				if cur < last {
					select {
					case violation <- cur:
					default:
					}
					return
				}
				last = cur
			}
		}
	}()
	for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, 64)) {
		enc := enc
		feed(t, e, &enc)
	}
	e.Drain()
	close(stop)
	select {
	case ts := <-violation:
		t.Fatalf("tg_cmt_ts moved backwards to %d", ts)
	default:
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	plan := grouping.SingleGroup([]wal.TableID{1})
	enc := &epoch.Encoded{Seq: 0, LastCommitTS: 1}

	// Feed before Start must fail fast, not block on the scheduler-less
	// feed queue forever.
	e := New("AETS", memtable.New(), plan, Config{Workers: 1, Pipeline: 2})
	if err := e.Feed(enc); err != ErrNotStarted {
		t.Fatalf("Feed before Start: got %v, want ErrNotStarted", err)
	}

	e.Start()
	e.Start() // idempotent
	if err := e.Feed(enc); err != nil {
		t.Fatalf("Feed on started engine: %v", err)
	}
	e.Stop()
	e.Stop() // idempotent
	if err := e.Feed(enc); err != ErrStopped {
		t.Fatalf("Feed after Stop: got %v, want ErrStopped", err)
	}

	// Stop on a never-started engine must not hang, and must leave Feed
	// failing with ErrStopped.
	e2 := New("AETS", memtable.New(), plan, Config{Workers: 1})
	e2.Stop()
	if err := e2.Feed(enc); err != ErrStopped {
		t.Fatalf("Feed after Stop-without-Start: got %v, want ErrStopped", err)
	}
}

func TestEngineConcurrentFeedStop(t *testing.T) {
	// Feeders racing Stop must each either enqueue successfully or get
	// ErrStopped — never panic on a closed channel or deadlock.
	plan := grouping.SingleGroup([]wal.TableID{1})
	for round := 0; round < 20; round++ {
		e := New("AETS", memtable.New(), plan, Config{Workers: 1, Pipeline: 2})
		e.Start()
		var wg sync.WaitGroup
		for f := 0; f < 4; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := e.Feed(&epoch.Encoded{Seq: uint64(i), LastCommitTS: int64(i + 1)}); err != nil {
						if err != ErrStopped {
							t.Errorf("Feed: %v", err)
						}
						return
					}
				}
			}()
		}
		e.Stop()
		wg.Wait()
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// Plan returns the currently active plan.
func (e *Engine) Plan() *grouping.Plan { return e.vis.Load().plan }

// GroupTS returns the tg_cmt_ts of the group currently holding table t, or
// the global timestamp if the table is unknown to the plan.
func (e *Engine) GroupTS(t wal.TableID) int64 {
	vs := e.vis.Load()
	if gi, ok := vs.plan.GroupOf(t); ok {
		return vs.tg[gi].Load()
	}
	return e.global.Load()
}

// TestWaitGlobal checks the router's admission wait: parked waiters
// return true once an epoch publish covers them, false once the engine
// stops short of them — also an engine stopped without ever starting —
// and leave no registration behind.
func TestWaitGlobal(t *testing.T) {
	plan := grouping.SingleGroup([]wal.TableID{1})
	park := func(e *Engine, qts int64, n int) chan bool {
		out := make(chan bool, n)
		for i := 0; i < n; i++ {
			go func() { out <- e.WaitGlobal(qts) }()
		}
		for e.gWaiters.Load() != int64(n) {
			runtime.Gosched()
		}
		return out
	}
	collect := func(out chan bool, n int, want bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case got := <-out:
				if got != want {
					t.Fatalf("WaitGlobal = %v, want %v", got, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("waiter %d of %d never returned", i, n)
			}
		}
	}

	e := New("AETS", memtable.New(), plan, Config{Workers: 1})
	e.Start()
	covered := park(e, 500, 4)
	feed(t, e, &epoch.Encoded{Seq: 0, LastCommitTS: 400})
	e.Drain()
	select {
	case got := <-covered:
		t.Fatalf("WaitGlobal(500) returned %v at global ts %d", got, e.GlobalTS())
	case <-time.After(20 * time.Millisecond):
	}
	feed(t, e, &epoch.Encoded{Seq: 0, LastCommitTS: 500})
	collect(covered, 4, true)

	stranded := park(e, 1000, 4)
	e.Stop()
	collect(stranded, 4, false)
	if !e.WaitGlobal(500) || e.WaitGlobal(501) {
		t.Fatal("a stopped engine must admit what it published and refuse the rest")
	}

	never := New("AETS", memtable.New(), plan, Config{Workers: 1})
	stranded = park(never, 1, 2)
	never.Stop()
	collect(stranded, 2, false)
	if n := e.gWaiters.Load() + never.gWaiters.Load(); n != 0 {
		t.Fatalf("%d waiter registrations left behind", n)
	}
}
