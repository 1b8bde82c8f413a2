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
	// in flight (dispatched but not yet published). Values ≤ 0 mean 1,
	// where epoch N+1 is not dispatched until N has published; there is
	// no separate serial path.
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
	if c.Pipeline <= 0 {
		c.Pipeline = 1
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

	// Global-watermark waiters (WaitGlobal) park on gCh, which
	// publishAll closes and replaces once per global advance — never on
	// a per-piece group publish — and only while gWaiters > 0. stopped
	// closes once the engine can publish no more.
	gMu      sync.Mutex
	gCh      chan struct{}
	gWaiters atomic.Int64
	stopped  chan struct{}

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
	e.gCh = make(chan struct{})
	e.stopped = make(chan struct{})
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
	go e.run()
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

// Stop drains and terminates the scheduler, then releases WaitGlobal
// waiters the drained watermark does not cover. The engine cannot be
// restarted; Feed after Stop returns ErrStopped.
func (e *Engine) Stop() {
	e.lifecycle.Lock()
	if !e.state.CompareAndSwap(stateStarted, stateStopped) {
		// Never started (or already stopped): mark stopped so Feed fails
		// cleanly, and don't wait on a scheduler that never ran.
		if e.state.CompareAndSwap(stateNew, stateStopped) {
			close(e.stopped)
		}
		e.lifecycle.Unlock()
		return
	}
	close(e.feed)
	e.lifecycle.Unlock()
	<-e.loopDone
	close(e.stopped)
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
// the first bucket. The buckets sum per-group replay time, not scheduler
// wall time: a stage's groups replay concurrently, and above Pipeline 1
// stages of adjacent epochs overlap too; ratios between the buckets are
// preserved.
func (e *Engine) StageTimes() (hot, cold time.Duration) {
	return time.Duration(e.hotStageNS.Load()), time.Duration(e.coldStageNS.Load())
}

// SetPlan schedules a new group plan; it takes effect at the next epoch
// boundary, once every previously fed epoch has published.
func (e *Engine) SetPlan(p *grouping.Plan) {
	e.planMu.Lock()
	e.nextPlan = p
	e.planMu.Unlock()
}

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
// Scheduler: the paper's replay structure (§V) built once per plan. Every
// plan group has one long-lived committer draining its commit_order_queue,
// so per-group commit order is queue order and each group's tg_cmt_ts only
// ever covers a committed prefix. The dispatch loop holds one of Pipeline
// slots per epoch in flight and queues exactly one job per group per epoch
// (a nil batch for a group the epoch left untouched, which only
// publishes). A cold batch waits until its epoch's hot batches have
// published, so within every epoch hot groups publish first. One
// publisher takes epochs in feed order and runs publishAll once all of an
// epoch's jobs are done, so global_cmt_ts only ever covers a fully
// committed prefix.

// job is one epoch's work for one group's committer.
type job struct {
	ep      *epochRun
	gb      *dispatch.GroupBatch // nil: untouched by the epoch, publish only
	threads int
	hot     bool
}

// epochRun carries one epoch from dispatch to its publishAll.
type epochRun struct {
	endTS         int64
	hot           sync.WaitGroup // hot batches not yet published
	jobs          sync.WaitGroup // jobs not yet done
	bufs          *dispatch.Buffers
	failed        bool // dispatch failed: nothing to publish
	txns, entries int
}

// crew is one plan's goroutines: a committer per group and the publisher.
type crew struct {
	queues []chan job
	epochs chan *epochRun
	wg     sync.WaitGroup
}

func (e *Engine) run() {
	defer close(e.loopDone)
	// slots caps the epochs in flight: acquired (send) before an epoch is
	// dispatched, released (receive) by the publisher once it has published.
	slots := make(chan struct{}, e.cfg.Pipeline)
	vs := e.vis.Load()
	c := e.startCrew(vs, slots)
	for enc := range e.feed {
		if next := e.takePlanSwap(); next != nil {
			// Plan swap: every in-flight epoch commits and publishes first,
			// so the fresh groups inherit a settled global timestamp.
			c.stop()
			e.installPlan(next, e.global.Load())
			vs = e.vis.Load()
			c = e.startCrew(vs, slots)
		}
		slots <- struct{}{}
		e.gInflight.Set(float64(e.epochsInflight.Add(1)))
		e.cEpochs.Inc()
		c.epochs <- e.dispatchEpoch(enc, vs, c.queues)
	}
	c.stop()
}

func (e *Engine) startCrew(vs *visState, slots <-chan struct{}) *crew {
	// Every epoch in flight puts one entry on each queue and on epochs, so
	// Pipeline bounds them exactly and no send blocks.
	c := &crew{
		queues: make([]chan job, len(vs.plan.Groups)),
		epochs: make(chan *epochRun, e.cfg.Pipeline),
	}
	c.wg.Add(len(c.queues) + 1)
	for gi := range c.queues {
		c.queues[gi] = make(chan job, e.cfg.Pipeline)
		go e.committer(vs, gi, c.queues[gi], &c.wg)
	}
	go e.publisher(vs, c.epochs, slots, &c.wg)
	return c
}

// stop closes the crew's queues and waits for the committers and the
// publisher to drain them.
func (c *crew) stop() {
	for _, q := range c.queues {
		close(q)
	}
	close(c.epochs)
	c.wg.Wait()
}

// dispatchEpoch routes enc and queues one job per group. A heartbeat (the
// paper's dummy log, §V-B) and a failed dispatch queue none: the publisher
// then publishes the heartbeat everywhere and skips the failed epoch.
func (e *Engine) dispatchEpoch(enc *epoch.Encoded, vs *visState, queues []chan job) *epochRun {
	ep := &epochRun{endTS: enc.LastCommitTS}
	if enc.TxnCount == 0 {
		return ep
	}
	ep.bufs = e.acquireDispatch()
	t0 := time.Now()
	res, err := ep.bufs.Dispatch(enc, vs.plan)
	dd := time.Since(t0)
	e.hDispatch.Observe(dd)
	if e.cfg.Breakdown != nil {
		e.cfg.Breakdown.AddDispatch(dd)
	}
	if err != nil {
		e.fail(fmt.Errorf("epoch %d: %w", enc.Seq, err))
		ep.failed = true
		return ep
	}
	ep.endTS, ep.txns, ep.entries = res.LastCommitTS, res.Txns, res.Entries

	// Per-stage worker allocation. With epochs overlapping, consecutive
	// epochs' stages can briefly oversubscribe the budget; GOMAXPROCS
	// bounds real parallelism.
	hot, cold := splitStages(vs, res)
	if !e.cfg.TwoStage {
		hot, cold = append(hot, cold...), nil
	}
	// Both counts are complete before any job is queued, so no committer
	// can Wait concurrently with a late Add.
	ep.hot.Add(len(hot))
	ep.jobs.Add(len(queues))
	for gi, gb := range res.PerGroup {
		if gb == nil {
			queues[gi] <- job{ep: ep}
		}
	}
	for i, n := range e.stageThreads(vs, hot) {
		queues[hot[i].Group] <- job{ep: ep, gb: hot[i], threads: n, hot: true}
	}
	for i, n := range e.stageThreads(vs, cold) {
		queues[cold[i].Group] <- job{ep: ep, gb: cold[i], threads: n}
	}
	return ep
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

// committer is group gi's commit thread: it drains the group's queue in
// epoch order, replaying each batch with TPLR (a cold one only after its
// epoch's hot batches have published) and publishing the group up to the
// epoch end: the epoch holds every transaction in its ID range, so a group
// that has replayed its batch, or had none, is current to that point. A
// hot batch signals its epoch only after publishing, so a hot group's
// tg_cmt_ts never trails a cold one's.
func (e *Engine) committer(vs *visState, gi int, queue <-chan job, wg *sync.WaitGroup) {
	defer wg.Done()
	for j := range queue {
		if j.gb != nil {
			if !j.hot {
				j.ep.hot.Wait()
			}
			t := time.Now()
			if err := e.replayGroup(vs, j.gb, j.threads); err != nil {
				e.fail(err)
			}
			stage := &e.coldStageNS
			if j.hot {
				stage = &e.hotStageNS
			}
			stage.Add(int64(time.Since(t)))
		}
		e.publishGroup(vs, gi, j.ep.endTS)
		if j.hot {
			j.ep.hot.Done()
		}
		j.ep.jobs.Done()
	}
}

// publisher takes epochs in feed order; once all of an epoch's jobs are
// done it publishes the epoch everywhere, recycles its dispatch buffers,
// frees its slot and marks it drained.
func (e *Engine) publisher(vs *visState, epochs <-chan *epochRun, slots <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for ep := range epochs {
		ep.jobs.Wait()
		if !ep.failed {
			e.publishAll(vs, ep.endTS)
			e.txns.Add(int64(ep.txns))
			e.entries.Add(int64(ep.entries))
		}
		if ep.bufs != nil {
			e.bufPool.Put(ep.bufs)
		}
		<-slots
		e.gInflight.Set(float64(e.epochsInflight.Add(-1)))
		e.inflight.Done()
	}
}

func (e *Engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}
