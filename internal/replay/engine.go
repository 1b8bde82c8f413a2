// Package replay implements the AETS framework: epoch-ordered, two-stage
// (hot then cold), table-group parallel log replay with the TPLR two-phase
// algorithm, adaptive per-group worker allocation, and Algorithm 3
// visibility for readers.
package replay

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aets/internal/alloc"
	"aets/internal/dispatch"
	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/metrics"
)

// Lifecycle errors returned by Feed.
var (
	// ErrNotStarted is returned by Feed before Start.
	ErrNotStarted = errors.New("replay: engine not started")
	// ErrStopped is returned by Feed after Stop.
	ErrStopped = errors.New("replay: engine stopped")
)

// Config parameterises an Engine.
type Config struct {
	// Workers is the total replay worker budget T shared by all groups of a
	// stage. Defaults to GOMAXPROCS.
	Workers int
	// Urgency maps a group's access rate to its thread-allocation weight.
	// Defaults to alloc.LogUrgency (the paper's λ = log r).
	Urgency alloc.UrgencyFunc
	// TwoStage enables the hot-groups-first staging. Disabling it yields
	// plain grouped TPLR: all groups replay in a single stage.
	TwoStage bool
	// Breakdown, when non-nil, accumulates the Table II phase timing.
	Breakdown *metrics.Breakdown
	// FeedDepth is the epoch queue depth between Feed and the scheduler.
	FeedDepth int
	// Pipeline is the epoch pipeline depth: the maximum number of epochs
	// concurrently in flight (dispatched or replaying), with per-group
	// epoch sequencing preserving commit order. 0 keeps the serial
	// scheduler: epoch N+1 is not dispatched until N is fully committed.
	Pipeline int
	// Registry receives the engine's operational metrics (pipeline depth,
	// epochs in flight, buffer-recycling counters). Defaults to
	// metrics.Default.
	Registry *metrics.Registry
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Urgency == nil {
		c.Urgency = alloc.LogUrgency
	}
	if c.FeedDepth <= 0 {
		c.FeedDepth = 8
	}
	if c.Pipeline < 0 {
		c.Pipeline = 0
	}
	if c.Registry == nil {
		c.Registry = metrics.Default
	}
}

// Engine lifecycle states.
const (
	stateNew int32 = iota
	stateStarted
	stateStopped
)

// visState snapshots the group plan together with its per-group commit
// timestamps; it is swapped atomically when the plan changes at an epoch
// boundary.
type visState struct {
	plan *grouping.Plan
	tg   []atomic.Int64 // tg_cmt_ts per group
}

// Engine is the AETS backup-side replay engine. Create with New, then
// Start; Feed epochs in order; readers call WaitVisible. The zero value is
// not usable.
type Engine struct {
	name string
	cfg  Config
	mt   *memtable.Memtable

	planMu   sync.Mutex
	nextPlan *grouping.Plan

	vis    atomic.Pointer[visState]
	global atomic.Int64

	visMu   sync.Mutex
	visCond *sync.Cond
	waiters atomic.Int64

	feed     chan *epoch.Encoded
	inflight sync.WaitGroup
	loopDone chan struct{}

	// lifecycle serialises Feed against Stop's close of the feed channel;
	// state gates both without requiring the lock for reads.
	lifecycle sync.RWMutex
	state     atomic.Int32

	errMu sync.Mutex
	err   error

	txns    atomic.Int64
	entries atomic.Int64

	hotStageNS  atomic.Int64
	coldStageNS atomic.Int64

	bufPool   sync.Pool // *dispatch.Buffers
	batchPool sync.Pool // *batchState

	epochsInflight atomic.Int64
	gDepth         *metrics.Gauge
	gInflight      *metrics.Gauge
	cEpochs        *metrics.Counter
	cHandoffReuse  *metrics.Counter
	cHandoffAlloc  *metrics.Counter
	cDispatchReuse *metrics.Counter
	cDispatchAlloc *metrics.Counter
	cArenaBytes    *metrics.Counter
	gRecycled      *metrics.Gauge

	// Stage latency histograms (paper Table II's dispatch/replay/commit
	// breakdown, as live distributions): per-epoch dispatch time, per-piece
	// TPLR commit time, and per-query WaitVisible block time. Observe is
	// allocation-free, so these sit on the pinned hot paths.
	hDispatch *metrics.Histogram
	hCommit   *metrics.Histogram
	hWait     *metrics.Histogram
}

// New returns an engine named name over mt with the initial group plan.
func New(name string, mt *memtable.Memtable, plan *grouping.Plan, cfg Config) *Engine {
	cfg.fill()
	e := &Engine{name: name, cfg: cfg, mt: mt}
	e.visCond = sync.NewCond(&e.visMu)
	e.feed = make(chan *epoch.Encoded, cfg.FeedDepth)
	e.loopDone = make(chan struct{})
	reg := cfg.Registry
	e.gDepth = reg.Gauge("replay_pipeline_depth")
	e.gInflight = reg.Gauge("replay_epochs_inflight")
	e.cEpochs = reg.Counter("replay_epochs_total")
	e.cHandoffReuse = reg.Counter("replay_handoff_reuse_total")
	e.cHandoffAlloc = reg.Counter("replay_handoff_alloc_total")
	e.cDispatchReuse = reg.Counter("replay_dispatch_reuse_total")
	e.cDispatchAlloc = reg.Counter("replay_dispatch_alloc_total")
	// Replay memory, visible on a running replica: the bytes of versions
	// and column headers carved (one add per batch), and how many arenas
	// Vacuum has handed back (mirrored from the pool once per epoch).
	e.cArenaBytes = reg.Counter("replay_arena_bytes_total")
	e.gRecycled = reg.Gauge("memtable_arenas_recycled_total")
	e.hDispatch = reg.Histogram("replay_dispatch_seconds")
	e.hCommit = reg.Histogram("replay_commit_seconds")
	e.hWait = reg.Histogram("replay_wait_visible_seconds")
	// Shard-lock wait time: how long translate workers (and scans) block
	// on memtable shard mutexes. Near-zero when the sharded index is doing
	// its job; a hot histogram here means keys are hashing onto too few
	// shards for the worker count.
	mt.SetWaitObserver(reg.Histogram("memtable_shard_wait_ns"))
	e.installPlan(plan, 0)
	return e
}

// Name returns the engine's display name.
func (e *Engine) Name() string { return e.name }

// Start launches the scheduler. Idempotent; a stopped engine cannot be
// restarted.
func (e *Engine) Start() {
	if !e.state.CompareAndSwap(stateNew, stateStarted) {
		return
	}
	e.gDepth.Set(float64(e.cfg.Pipeline))
	if e.cfg.Pipeline > 0 {
		go e.runPipelined()
	} else {
		go e.runSerial()
	}
}

// Feed enqueues one encoded epoch for replay. Epochs must be fed in
// sequence order. Blocks when the feed queue is full (replication
// back-pressure). Returns ErrNotStarted before Start and ErrStopped after
// Stop instead of blocking forever. The engine keeps enc.Buf: see
// epoch.Encoded for the ownership contract.
func (e *Engine) Feed(enc *epoch.Encoded) error {
	e.lifecycle.RLock()
	defer e.lifecycle.RUnlock()
	switch e.state.Load() {
	case stateNew:
		return ErrNotStarted
	case stateStopped:
		return ErrStopped
	}
	e.inflight.Add(1)
	e.feed <- enc
	return nil
}

// Drain blocks until every epoch fed so far has been fully replayed and
// committed.
func (e *Engine) Drain() { e.inflight.Wait() }

// Stop drains and terminates the scheduler. The engine cannot be
// restarted; Feed after Stop returns ErrStopped.
func (e *Engine) Stop() {
	e.lifecycle.Lock()
	if !e.state.CompareAndSwap(stateStarted, stateStopped) {
		// Never started (or already stopped): mark stopped so Feed fails
		// cleanly, and don't wait on a scheduler that never ran.
		e.state.CompareAndSwap(stateNew, stateStopped)
		e.lifecycle.Unlock()
		return
	}
	close(e.feed)
	e.lifecycle.Unlock()
	<-e.loopDone
}

// Err returns the first fatal replay error, if any.
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// Stats returns totals replayed since Start.
func (e *Engine) Stats() (txns, entries int64) {
	return e.txns.Load(), e.entries.Load()
}

// StageTimes returns the cumulative replay time of the hot (first) and
// cold (second) stages across all epochs — the per-class replay times of
// the paper's Fig 8(b)/9(b). Without two-stage mode everything lands in
// the first bucket. In pipelined mode stages of different epochs overlap,
// so the buckets accumulate per-group replay time rather than scheduler
// wall time; ratios between the buckets are preserved.
func (e *Engine) StageTimes() (hot, cold time.Duration) {
	return time.Duration(e.hotStageNS.Load()), time.Duration(e.coldStageNS.Load())
}

// SetPlan schedules a new group plan; it takes effect at the next epoch
// boundary, when all previously fed epochs' groups are fully committed.
func (e *Engine) SetPlan(p *grouping.Plan) {
	e.planMu.Lock()
	e.nextPlan = p
	e.planMu.Unlock()
}

// Plan returns the currently active plan.
func (e *Engine) Plan() *grouping.Plan { return e.vis.Load().plan }

func (e *Engine) installPlan(p *grouping.Plan, ts int64) {
	vs := &visState{plan: p, tg: make([]atomic.Int64, len(p.Groups))}
	for i := range vs.tg {
		vs.tg[i].Store(ts)
	}
	e.vis.Store(vs)
}

// takePlanSwap pops the pending plan, if any.
func (e *Engine) takePlanSwap() *grouping.Plan {
	e.planMu.Lock()
	next := e.nextPlan
	e.nextPlan = nil
	e.planMu.Unlock()
	return next
}

func (e *Engine) acquireDispatch() *dispatch.Buffers {
	if v := e.bufPool.Get(); v != nil {
		e.cDispatchReuse.Inc()
		return v.(*dispatch.Buffers)
	}
	e.cDispatchAlloc.Inc()
	return dispatch.NewBuffers()
}

// ---------------------------------------------------------------------------
// Serial scheduler (Pipeline == 0): one epoch at a time, hot stage then
// cold stage, publish, next epoch.

func (e *Engine) runSerial() {
	defer close(e.loopDone)
	bufs := e.acquireDispatch()
	for enc := range e.feed {
		e.processEpoch(enc, bufs)
		e.inflight.Done()
	}
	e.bufPool.Put(bufs)
}

func (e *Engine) processEpoch(enc *epoch.Encoded, bufs *dispatch.Buffers) {
	// Plan swaps happen only here: all prior epochs are fully committed, so
	// every table is replayed up to the current global commit timestamp and
	// the fresh groups inherit it.
	if next := e.takePlanSwap(); next != nil {
		e.installPlan(next, e.global.Load())
	}
	vs := e.vis.Load()
	e.cEpochs.Inc()

	if enc.TxnCount == 0 {
		// Heartbeat epoch: a dummy log that bumps every group's publish
		// time so idle groups cannot stall readers (paper §V-B).
		e.publishAll(vs, enc.LastCommitTS)
		return
	}

	t0 := time.Now()
	res, err := bufs.Dispatch(enc, vs.plan)
	dd := time.Since(t0)
	e.hDispatch.Observe(dd)
	if e.cfg.Breakdown != nil {
		e.cfg.Breakdown.AddDispatch(dd)
	}
	if err != nil {
		e.fail(fmt.Errorf("epoch %d: %w", enc.Seq, err))
		return
	}

	// Groups untouched by this epoch contain all their data up to the
	// epoch's last commit: publish them immediately.
	for gi, gb := range res.PerGroup {
		if gb == nil {
			e.publishGroup(vs, gi, res.LastCommitTS)
		}
	}

	hot, cold := splitStages(vs, res)

	if e.cfg.TwoStage {
		t1 := time.Now()
		e.runStage(vs, hot, res.LastCommitTS)
		e.hotStageNS.Add(int64(time.Since(t1)))
		t2 := time.Now()
		e.runStage(vs, cold, res.LastCommitTS)
		e.coldStageNS.Add(int64(time.Since(t2)))
	} else {
		t1 := time.Now()
		e.runStage(vs, append(hot, cold...), res.LastCommitTS)
		e.hotStageNS.Add(int64(time.Since(t1)))
	}

	e.publishAll(vs, res.LastCommitTS)
	e.txns.Add(int64(res.Txns))
	e.entries.Add(int64(res.Entries))
}

// splitStages partitions an epoch's touched batches into the hot (first)
// and cold (second) replay stages.
func splitStages(vs *visState, res *dispatch.Result) (hot, cold []*dispatch.GroupBatch) {
	for _, gb := range res.PerGroup {
		if gb == nil {
			continue
		}
		if vs.plan.Groups[gb.Group].Hot {
			hot = append(hot, gb)
		} else {
			cold = append(cold, gb)
		}
	}
	return hot, cold
}

// stageThreads splits the worker budget across a stage's groups by λ·n
// weight.
func (e *Engine) stageThreads(vs *visState, batches []*dispatch.GroupBatch) []int {
	loads := make([]alloc.GroupLoad, len(batches))
	for i, gb := range batches {
		loads[i] = alloc.GroupLoad{Unreplayed: gb.Bytes, Rate: vs.plan.Groups[gb.Group].Rate}
	}
	threads := alloc.Allocate(e.cfg.Workers, loads, e.cfg.Urgency)
	for i := range threads {
		if threads[i] < 1 {
			threads[i] = 1
		}
	}
	return threads
}

// runStage replays a set of group batches concurrently. When a group's
// batch completes it is published up to the epoch's last commit timestamp:
// the epoch contains every transaction in its ID range, so a fully
// replayed group is current up to the epoch end even if its own last write
// is older.
func (e *Engine) runStage(vs *visState, batches []*dispatch.GroupBatch, epochEndTS int64) {
	if len(batches) == 0 {
		return
	}
	threads := e.stageThreads(vs, batches)
	var wg sync.WaitGroup
	for i, gb := range batches {
		wg.Add(1)
		go func(gb *dispatch.GroupBatch, n int) {
			defer wg.Done()
			if err := e.replayGroup(vs, gb, n); err != nil {
				e.fail(err)
			}
			e.publishGroup(vs, gb.Group, epochEndTS)
		}(gb, threads[i])
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Pipelined scheduler (Pipeline >= 1): the dispatch loop decodes and
// dispatches epoch N+1 while epoch N replays, with up to Pipeline epochs
// in flight. Ordering is enforced per group, not with a global barrier:
// each group's replay of epoch N+1 starts only after its own epoch-N
// batch has committed, so per-group commit order (and therefore each
// group's tg_cmt_ts prefix invariant) is exactly the serial engine's. An
// epoch's cold batches additionally wait for that epoch's hot stage, so
// within every epoch hot groups still publish first. The global commit
// timestamp advances through a completion chain — epoch N's publishAll
// runs only after epoch N-1's — so global_cmt_ts only ever covers a fully
// committed prefix and WaitVisible semantics are unchanged.

// epochGroupRun carries one group's slice of an epoch through the
// pipeline.
type epochGroupRun struct {
	gb      *dispatch.GroupBatch
	threads int
	hot     bool
}

func (e *Engine) runPipelined() {
	defer close(e.loopDone)
	// slots caps the number of epochs in flight: acquire (send) before
	// dispatching an epoch, release (receive) when it fully commits.
	slots := make(chan struct{}, e.cfg.Pipeline)
	vs := e.vis.Load()
	prevGroup := make([]chan struct{}, len(vs.plan.Groups))
	var prevComplete chan struct{}

	for enc := range e.feed {
		if next := e.takePlanSwap(); next != nil {
			// Plan swap barrier: wait until every in-flight epoch is fully
			// committed so the fresh groups inherit a settled global
			// timestamp, then drop the old per-group chains.
			if prevComplete != nil {
				<-prevComplete
				prevComplete = nil
			}
			e.installPlan(next, e.global.Load())
			vs = e.vis.Load()
			prevGroup = make([]chan struct{}, len(vs.plan.Groups))
		}

		slots <- struct{}{}
		e.gInflight.Set(float64(e.epochsInflight.Add(1)))
		e.cEpochs.Inc()
		complete := make(chan struct{})
		prev := prevComplete
		prevComplete = complete

		if enc.TxnCount == 0 {
			// Heartbeat: publish once every earlier epoch has committed.
			ts := enc.LastCommitTS
			state := vs
			go func() {
				if prev != nil {
					<-prev
				}
				e.publishAll(state, ts)
				e.finishEpoch(complete, slots)
			}()
			continue
		}

		bufs := e.acquireDispatch()
		t0 := time.Now()
		res, err := bufs.Dispatch(enc, vs.plan)
		dd := time.Since(t0)
		e.hDispatch.Observe(dd)
		if e.cfg.Breakdown != nil {
			e.cfg.Breakdown.AddDispatch(dd)
		}
		if err != nil {
			e.fail(fmt.Errorf("epoch %d: %w", enc.Seq, err))
			e.bufPool.Put(bufs)
			go func() {
				if prev != nil {
					<-prev
				}
				e.finishEpoch(complete, slots)
			}()
			continue
		}

		// Per-stage worker allocation, as in the serial scheduler. With
		// epochs overlapping, consecutive epochs' stages can briefly
		// oversubscribe the budget; GOMAXPROCS bounds real parallelism.
		hot, cold := splitStages(vs, res)
		if !e.cfg.TwoStage {
			hot, cold = append(hot, cold...), nil
		}
		runs := make([]*epochGroupRun, len(vs.plan.Groups))
		for i, threads := 0, e.stageThreads(vs, hot); i < len(hot); i++ {
			runs[hot[i].Group] = &epochGroupRun{gb: hot[i], threads: threads[i], hot: true}
		}
		for i, threads := 0, e.stageThreads(vs, cold); i < len(cold); i++ {
			runs[cold[i].Group] = &epochGroupRun{gb: cold[i], threads: threads[i]}
		}

		// hotWG is fully counted before any goroutine spawns, so a cold
		// group can never Wait concurrently with a late Add.
		var hotWG sync.WaitGroup
		hotWG.Add(len(hot))

		gdone := make([]chan struct{}, len(vs.plan.Groups))
		epochEnd := res.LastCommitTS
		state := vs
		for gi := range gdone {
			done := make(chan struct{})
			gdone[gi] = done
			prevG := prevGroup[gi]
			prevGroup[gi] = done
			run := runs[gi]
			switch {
			case run == nil:
				// Untouched group: all its data through the epoch end is
				// present once its own chain reaches this epoch.
				go func(gi int) {
					defer close(done)
					if prevG != nil {
						<-prevG
					}
					e.publishGroup(state, gi, epochEnd)
				}(gi)
			case run.hot:
				go func(r *epochGroupRun) {
					defer close(done)
					defer hotWG.Done()
					if prevG != nil {
						<-prevG
					}
					t := time.Now()
					if err := e.replayGroup(state, r.gb, r.threads); err != nil {
						e.fail(err)
					}
					e.hotStageNS.Add(int64(time.Since(t)))
					e.publishGroup(state, r.gb.Group, epochEnd)
				}(run)
			default:
				go func(r *epochGroupRun) {
					defer close(done)
					if prevG != nil {
						<-prevG
					}
					hotWG.Wait()
					t := time.Now()
					if err := e.replayGroup(state, r.gb, r.threads); err != nil {
						e.fail(err)
					}
					e.coldStageNS.Add(int64(time.Since(t)))
					e.publishGroup(state, r.gb.Group, epochEnd)
				}(run)
			}
		}

		txns, entries := res.Txns, res.Entries
		go func() {
			for _, d := range gdone {
				<-d
			}
			if prev != nil {
				<-prev
			}
			e.publishAll(state, epochEnd)
			e.txns.Add(int64(txns))
			e.entries.Add(int64(entries))
			e.bufPool.Put(bufs)
			e.finishEpoch(complete, slots)
		}()
	}
	if prevComplete != nil {
		<-prevComplete
	}
}

// finishEpoch closes the epoch's completion chain link, releases its
// pipeline slot and marks it drained.
func (e *Engine) finishEpoch(complete chan struct{}, slots chan struct{}) {
	close(complete)
	<-slots
	e.gInflight.Set(float64(e.epochsInflight.Add(-1)))
	e.inflight.Done()
}

func (e *Engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}
