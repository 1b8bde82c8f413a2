package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aets/internal/cluster"
	"aets/internal/wal"
	"aets/internal/workload"
)

// visibleDeadline is how long after its cut an epoch may take to become
// visible before it counts as failed. A variable only so that the tests'
// race build, which runs several times slower, can relax it.
var visibleDeadline = 5 * time.Second

const (
	// wedgeTimeout bounds the wait for the last epoch; past it the run
	// is abandoned rather than hung.
	wedgeTimeout = 60 * time.Second
	// maxLateUS and maxBacklogGrowth are the validity limits of an
	// open-loop run. The median epoch may not be cut later than
	// maxLateUS: the driver shares two cores with the system, so a
	// garbage-collection cycle, a checkpoint or the analyst delays
	// single cuts by up to a scheduler quantum — which the samples, timed
	// from the due instant, include — but a driver that is late at the
	// median is not keeping its schedule. And freshness may not double
	// between the first and the last fifth of the window.
	maxLateUS        = 1000.0
	maxBacklogGrowth = 2.0
)

// workloadRun is one workload sized for one command line.
type workloadRun struct {
	name                 string
	p                    Properties
	cfg                  runConfig
	epochs, prefixEpochs int
}

// readSample is one probe or analyst query. Times are ns since the
// pass's base; due is the scheduled instant, start when the driver got
// to it (closed-loop reads have due == start).
type readSample struct {
	due, start, admitted, end int64
	epoch                     int      // epoch holding the commit ts asked for
	kind                      int      // which query of the analyst's mix; 0 for probes
	ops                       []opSpan // every Snapshot call made
	rows                      int64
	waited                    bool
}

// opSpan is one Snapshot call of a read, ns since base.
type opSpan struct {
	op         int
	start, end int64
}

// Snapshot operations the per-layer query.* metrics are keyed by.
const (
	opGet = iota
	opCount
	opSum
	opScanCols
	opScanKeys
	numOps
)

var opNames = [numOps]string{"get", "count", "sum", "scancols", "scankeys"}

// interval is one bench-driven maintenance call (checkpoint, compact,
// vacuum), ns since base.
type interval struct{ start, end int64 }

// counters is a point-in-time reading of everything reported as a
// difference over the measured window.
type counters struct {
	at         int64 // ns since base
	user, sys  time.Duration
	wire       wireSnapshot
	raw, sentW int64 // SenderStats BytesRaw / BytesWire, all peers
	reconnects int64
	sent       int64 // epoch frames written, all peers
	mem        runtime.MemStats
}

// pass is one topology lifetime: the stamps of every epoch sent through
// it and every read served by it.
type pass struct {
	w    *workloadRun
	s    *stream
	topo *topology

	from, to int // epochs [from, to) are sent by this pass (from = prefix)
	// windowStart is where the measured part begins, ns since base:
	// after the warm-up of an open loop, 0 for a closed pass.
	windowStart int64

	cutDue, sendStart, sendEnd []int64   // per epoch, ns since base
	visAll, visHot             [][]int64 // [replica][epoch]

	mu    sync.Mutex // guards seen, reads, failures and the interval slices
	cond  *sync.Cond
	seen  []int // epochs visible so far, per replica (all tables)
	reads []readSample

	lastSent  atomic.Int64 // index of the last epoch handed to Send, -1 before
	activeQTS atomic.Int64 // qts of the analyst's running query, 0 if none
	queueMax  atomic.Int64

	ckpts, compacts, vacuums []interval
	failures                 []string
	attempted                int

	c0, c1 counters // window start / end
	// cpuSlices is the open loop's process CPU in ms per thousand
	// transactions, one value per cpuSlice of the window.
	cpuSlices []float64
}

func newPass(w *workloadRun, s *stream, topo *topology, from, to int) *pass {
	n := len(s.encs)
	ps := &pass{w: w, s: s, topo: topo, from: from, to: to,
		cutDue: make([]int64, n), sendStart: make([]int64, n), sendEnd: make([]int64, n),
		seen: make([]int, len(topo.replicas))}
	ps.cond = sync.NewCond(&ps.mu)
	ps.lastSent.Store(-1)
	for range topo.replicas {
		ps.visAll = append(ps.visAll, make([]int64, n))
		ps.visHot = append(ps.visHot, make([]int64, n))
	}
	return ps
}

func (ps *pass) now() int64 { return int64(time.Since(ps.topo.base)) }

func (ps *pass) fail(format string, args ...any) {
	ps.mu.Lock()
	if len(ps.failures) < 20 {
		ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
	} else {
		ps.failures = append(ps.failures[:19], "…")
	}
	ps.mu.Unlock()
}

// timerSlack is how late a Go timer may fire on an otherwise idle
// process: the runtime parks in epoll_wait, whose timeout has millisecond
// resolution.
const timerSlack = 1200 * time.Microsecond

// sleepUntil returns at due. It sleeps to within timerSlack of it and
// yields in a loop for the rest, so that the epoch schedule — which every
// freshness sample is timed from — is not itself a millisecond late. The
// cost is under a millisecond of one core per epoch.
func (ps *pass) sleepUntil(due int64) {
	if d := time.Duration(due-ps.now()) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for ps.now() < due {
		runtime.Gosched()
	}
}

// watch starts, per replica, one goroutine that blocks in Algorithm 3
// for the whole catalogue and one for the hot tables, epoch after epoch,
// stamping when each became visible. They do no other work. done closes
// when every watcher has seen epoch to-1.
func (ps *pass) watch() (done chan struct{}) {
	var wg sync.WaitGroup
	for r, rep := range ps.topo.replicas {
		for _, hot := range []bool{false, true} {
			tables, dst := ps.s.tables, ps.visAll[r]
			if hot {
				tables, dst = ps.s.hot, ps.visHot[r]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := ps.from; i < ps.to; i++ {
					rep.node.Query(ps.s.encs[i].LastCommitTS, tables...)
					dst[i] = ps.now()
					if !hot {
						ps.mu.Lock()
						ps.seen[r]++
						ps.cond.Broadcast()
						ps.mu.Unlock()
					}
				}
			}()
		}
	}
	done = make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	return done
}

// send hands epoch i to the fan-out, stamped.
func (ps *pass) send(i int) error {
	ps.sendStart[i] = ps.now()
	err := ps.topo.fan.Send(&ps.s.encs[i])
	ps.sendEnd[i] = ps.now()
	ps.lastSent.Store(int64(i))
	return err
}

// pushClosed sends epochs [from,to) as fast as the window allows: epoch
// i goes out once epoch i-window is visible on every replica, so the
// slowest replica paces the loop. The wait is the closed loop's
// back-pressure (Fanout.Send itself only enqueues) and is reported as
// ship.send_block_us. With probes on, every epoch sent is followed by one
// probe for its last transaction, due at the send: a reader asking for
// what was just shipped, served by whichever replica gets there first.
// (Probes on a schedule of their own sample the backlog at arbitrary
// phases and came out twice as noisy.)
func (ps *pass) pushClosed(window int, probes *sync.WaitGroup) error {
	queries := ps.catalogueQueries()
	for i := ps.from; i < ps.to; i++ {
		ps.cutDue[i] = ps.now()
		ps.mu.Lock()
		for slices.Min(ps.seen) < i-ps.from-window+1 {
			ps.cond.Wait()
		}
		ps.mu.Unlock()
		if err := ps.send(i); err != nil {
			return err
		}
		if ps.w.p.ProbeRate > 0 {
			probes.Add(1)
			go func() {
				defer probes.Done()
				ps.probe(i, ps.sendStart[i], ps.s.firstTxn[i+1]-1, queries)
			}()
		}
		ps.noteQueue()
	}
	return nil
}

// pushOpen cuts epoch i when its last transaction is due at rate txns/s
// counted from origin, whether or not earlier epochs have drained.
// atWindow runs once, just before the first epoch due at or after
// windowStart is cut.
func (ps *pass) pushOpen(origin int64, rate float64, atWindow func()) error {
	first := ps.s.firstTxn[ps.from]
	for i := ps.from; i < ps.to; i++ {
		due := origin + int64(float64(ps.s.firstTxn[i+1]-first)/rate*1e9)
		ps.cutDue[i] = due
		if atWindow != nil && due >= ps.windowStart {
			atWindow()
			atWindow = nil
		}
		ps.sleepUntil(due)
		if err := ps.send(i); err != nil {
			return err
		}
		ps.noteQueue()
	}
	return nil
}

func (ps *pass) noteQueue() {
	for _, st := range ps.topo.fan.Stats() {
		if q := int64(st.Queued); q > ps.queueMax.Load() {
			ps.queueMax.Store(q)
		}
	}
}

// footprint picks the table set probe k declares, always containing the
// table it reads.
func (ps *pass) footprint(k int, tgt target, queries []workload.Query) []wal.TableID {
	var fp []wal.TableID
	switch {
	case ps.w.p.ProbeMix == "queries" && len(queries) > 0:
		fp = queries[k%len(queries)].Tables
	case k%2 == 0:
		fp = ps.s.hot
	default:
		return ps.s.tables
	}
	for _, t := range fp {
		if t == tgt.table {
			return fp
		}
	}
	return append(append([]wal.TableID(nil), fp...), tgt.table)
}

// probe reads the last row transaction ti wrote, at ti's commit ts,
// through the router. It must be admitted on a replica whose watermark
// covers that ts and must see exactly that write.
func (ps *pass) probe(k int, due int64, ti int, queries []workload.Query) {
	tgt, qts := ps.s.targets[ti], ps.s.txnTS[ti]
	fp := ps.footprint(k, tgt, queries)
	rs := readSample{due: due, start: ps.now(), epoch: ps.epochOf(ti)}
	adm, err := ps.topo.router.Admit(qts, fp...)
	rs.admitted = ps.now()
	if err != nil {
		ps.fail("probe %d: admit qts %d: %v", k, qts, err)
		ps.record(rs)
		return
	}
	defer adm.Done()
	if vis := adm.Replica.VisibleTS(); vis < qts {
		ps.fail("probe %d: admitted on %s at visible ts %d < qts %d", k, adm.Replica.ID(), vis, qts)
	}
	sn := adm.Replica.(cluster.Snapshotter).Query(adm.TS, fp...)
	t := ps.now()
	row, ok, err := sn.Get(tgt.table, tgt.key)
	rs.end = ps.now()
	rs.ops, rs.rows, rs.waited = []opSpan{{opGet, t, rs.end}}, 1, adm.Waited
	switch {
	case err != nil:
		ps.fail("probe %d: get: %v", k, err)
	case ok && row.CommitTS > qts:
		ps.fail("probe %d: row commit ts %d above qts %d", k, row.CommitTS, qts)
	case ok == tgt.deleted || (ok && row.CommitTS != qts):
		ps.fail("probe %d: table %d key %d at qts %d: found=%v commit ts %d, want the write of that txn",
			k, tgt.table, tgt.key, qts, ok, row.CommitTS)
	}
	ps.record(rs)
}

// epochOf returns the epoch holding stream transaction ti.
func (ps *pass) epochOf(ti int) int {
	return sort.SearchInts(ps.s.firstTxn, ti+1) - 1
}

func (ps *pass) record(rs readSample) {
	ps.mu.Lock()
	ps.reads = append(ps.reads, rs)
	ps.mu.Unlock()
}

// runProbes issues point probes open-loop at ProbeRate until stop
// closes, each in its own goroutine so a probe that waits for
// visibility does not delay the next one. Probe k asks for the last
// transaction due at its own due instant, so it pays the epoch-fill
// wait: the paper's visibility delay.
func (ps *pass) runProbes(origin int64, rate float64, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	queries := ps.catalogueQueries()
	first := ps.s.firstTxn[ps.from]
	period := 1e9 / float64(ps.w.p.ProbeRate)
	for k := 0; ; k++ {
		due := origin + int64((float64(k)+0.5)*period)
		if d := due - ps.now(); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(d)):
			}
		}
		ti := first + int(float64(due-origin)/1e9*rate) - 1
		if ti < first {
			continue
		}
		if ti >= ps.s.firstTxn[ps.to] {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps.probe(k, due, ti, queries)
		}()
	}
}

// catalogueQueries is the generator's query mix restricted to tables
// that exist on a replica (CH also names read-only reference tables).
func (ps *pass) catalogueQueries() []workload.Query {
	known := map[wal.TableID]bool{}
	for _, t := range ps.s.tables {
		known[t] = true
	}
	var out []workload.Query
	for _, q := range ps.s.gen.Queries() {
		var ts []wal.TableID
		for _, t := range q.Tables {
			if known[t] {
				ts = append(ts, t)
			}
		}
		if len(ts) > 0 {
			out = append(out, workload.Query{Name: q.Name, Tables: ts})
		}
	}
	return out
}

// runAnalyst is the closed-loop reader: the mix's queries in turn, each
// at the newest cut commit ts, until stop closes. Taking them in turn
// keeps the mix's composition the same in every run; the seed only
// places the range scans.
func (ps *pass) runAnalyst(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	queries := ps.catalogueQueries()
	rng := rand.New(rand.NewSource(ps.w.cfg.Seed))
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		ps.analystQuery(k, k%len(queries), queries[k%len(queries)], rng)
	}
}

func (ps *pass) analystQuery(k, kind int, q workload.Query, rng *rand.Rand) {
	at := int(max(ps.lastSent.Load(), int64(ps.from)-1))
	if at < 0 {
		time.Sleep(time.Millisecond) // nothing cut yet
		return
	}
	qts := ps.s.encs[at].LastCommitTS
	ps.activeQTS.Store(qts)
	defer ps.activeQTS.Store(0)
	rs := readSample{start: ps.now(), epoch: at, kind: kind}
	rs.due = rs.start
	adm, err := ps.topo.router.Admit(qts, q.Tables...)
	rs.admitted = ps.now()
	if err != nil {
		ps.fail("query %d %s: admit qts %d: %v", k, q.Name, qts, err)
		ps.record(rs)
		return
	}
	defer adm.Done()
	if vis := adm.Replica.VisibleTS(); vis < qts {
		ps.fail("query %d: admitted on %s at visible ts %d < qts %d", k, adm.Replica.ID(), vis, qts)
	}
	rs.waited = adm.Waited
	sn := adm.Replica.(cluster.Snapshotter).Query(adm.TS, q.Tables...)
	var above int64 // newest commit ts any scan returned
	timed := func(op int, fn func() error) {
		t := ps.now()
		if err := fn(); err != nil {
			ps.fail("query %d %s: %s: %v", k, q.Name, opNames[op], err)
		}
		rs.ops = append(rs.ops, opSpan{op, t, ps.now()})
	}
	for _, tbl := range q.Tables {
		sh := ps.s.shapes[tbl]
		if sh == nil {
			continue // never written in this stream
		}
		timed(opCount, func() error { _, err := sn.Count(tbl); return err })
		timed(opSum, func() error { _, err := sn.SumInt64(tbl, sh.sumCol); return err })
		span := (sh.keyHi - sh.keyLo) / 10
		lo := sh.keyLo + rng.Uint64()%(9*span+1)
		timed(opScanCols, func() error {
			return sn.ScanCols(tbl, lo, lo+span, []uint32{sh.sumCol}, func(_ uint64, ts int64, _ [][]byte) bool {
				rs.rows++
				above = max(above, ts)
				return true
			})
		})
		timed(opScanKeys, func() error {
			return sn.ScanKeys(tbl, 0, ^uint64(0), func(keys []uint64, ts []int64) bool {
				rs.rows += int64(len(keys))
				for _, t := range ts {
					above = max(above, t)
				}
				return true
			})
		})
	}
	rs.end = ps.now()
	if above > qts {
		ps.fail("query %d %s: read commit ts %d above qts %d", k, q.Name, above, qts)
	}
	ps.record(rs)
}

// runMaintenance drives the replica-side chores replayd leaves to
// cadences: Supervisor.Checkpoint and, on columnar nodes, Compact and
// Vacuum at a watermark no running query reads below.
func (ps *pass) runMaintenance(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := func(every time.Duration) <-chan time.Time {
		if every <= 0 {
			return nil
		}
		t := time.NewTicker(every)
		go func() { <-stop; t.Stop() }()
		return t.C
	}
	ckpt, compact := tick(ps.w.p.CheckpointEvery), tick(ps.w.p.CompactEvery)
	timed := func(dst *[]interval, fn func()) {
		iv := interval{start: ps.now()}
		fn()
		iv.end = ps.now()
		ps.mu.Lock()
		*dst = append(*dst, iv)
		ps.mu.Unlock()
	}
	for {
		select {
		case <-stop:
			return
		case <-ckpt:
			for _, r := range ps.topo.replicas {
				timed(&ps.ckpts, func() {
					if err := r.sup.Checkpoint(); err != nil {
						ps.fail("checkpoint %s: %v", r.id, err)
					}
				})
			}
		case <-compact:
			for _, r := range ps.topo.replicas {
				wm := r.node.VisibleTS()
				if q := ps.activeQTS.Load(); q > 0 {
					wm = min(wm, q)
				}
				if wm <= 0 {
					continue
				}
				timed(&ps.compacts, func() { r.node.Compact(wm) })
				timed(&ps.vacuums, func() { r.node.Vacuum(wm) })
			}
		}
	}
}

func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func (ps *pass) readCounters() counters {
	c := counters{at: ps.now(), wire: ps.topo.wire.snapshot()}
	c.user, c.sys = rusage()
	for _, st := range ps.topo.fan.Stats() {
		c.raw += st.BytesRaw
		c.sentW += st.BytesWire
		c.reconnects += st.Reconnects
		c.sent += st.Sent
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// await waits for the watchers, then marks every epoch that was not
// visible everywhere within visibleDeadline of its cut as failed.
func (ps *pass) await(done <-chan struct{}) error {
	select {
	case <-done:
	case <-time.After(wedgeTimeout):
		ps.mu.Lock()
		seen := slices.Min(ps.seen)
		ps.mu.Unlock()
		return fmt.Errorf("%s: epoch %d not visible on every replica %v after its cut: abandoning the run",
			ps.w.name, ps.from+seen, wedgeTimeout)
	}
	for i := ps.from; i < ps.to; i++ {
		if d := ps.visibleAll(i) - ps.cutDue[i]; d > int64(visibleDeadline) {
			ps.fail("epoch %d visible %v after its cut", i, time.Duration(d))
		}
	}
	ps.attempted += ps.to - ps.from
	return nil
}

// visibleAll is when epoch i was visible on the slowest replica.
func (ps *pass) visibleAll(i int) int64 {
	var v int64
	for r := range ps.visAll {
		v = max(v, ps.visAll[r][i])
	}
	return v
}

func (ps *pass) visibleHot(i int) int64 {
	var v int64
	for r := range ps.visHot {
		v = max(v, ps.visHot[r][i])
	}
	return v
}

// checkDigests requires every replica's committed state to equal the
// serial reference over the epochs this pass sent.
func (ps *pass) checkDigests(want uint64) {
	for _, r := range ps.topo.replicas {
		ps.attempted++
		if got := r.node.StateDigest(); got != want {
			ps.fail("%s: state digest %016x, serial reference %016x", r.id, got, want)
		}
	}
}

// runOpenLoop is the one pass of an open-loop workload: warm-up, then
// the measured window, on a topology whose warm prefix is already in.
func (w *workloadRun) runOpenLoop(s *stream, topo *topology) (*pass, error) {
	ps := newPass(w, s, topo, w.prefixEpochs, w.epochs)
	done := ps.watch()
	stop := make(chan struct{})
	var bg sync.WaitGroup
	origin := ps.now() + int64(10*time.Millisecond)
	ps.windowStart = origin + int64(w.cfg.Warmup*1e9)
	if w.p.ProbeRate > 0 {
		bg.Add(1)
		go ps.runProbes(origin, float64(w.p.Rate), stop, &bg)
	}
	if w.p.Analyst {
		bg.Add(1)
		go ps.runAnalyst(stop, &bg)
	}
	bg.Add(1)
	go ps.runMaintenance(stop, &bg)
	bg.Add(2)
	go ps.alignGC(stop, &bg)
	go ps.sampleCPU(float64(w.p.Rate), stop, &bg)

	err := ps.pushOpen(origin, float64(w.p.Rate), func() { ps.c0 = ps.readCounters() })
	if err == nil {
		err = ps.await(done)
	}
	ps.c1 = ps.readCounters()
	close(stop)
	bg.Wait()
	return ps, err
}

// gcLead is how long before the measured window the heap is collected.
const gcLead = time.Second

// alignGC forces a collection gcLead before the window opens, so that
// every run enters its window at the same point of the collector's cycle
// and, allocating at the same rate, sees the same number of cycles in
// it. Left alone, a cycle more or less moves CPU per transaction by a
// tenth on the large heaps the replicas build.
func (ps *pass) alignGC(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	select {
	case <-stop:
	case <-time.After(time.Duration(ps.windowStart-ps.now()) - gcLead):
		runtime.GC()
	}
}

// cpuSlice is the interval process CPU is sampled at inside the window.
const cpuSlice = 500 * time.Millisecond

// sampleCPU records, slice after slice of the measured window, the
// process CPU spent per thousand transactions committed in the slice.
// The report takes the median slice: a collector cycle or a checkpoint
// is a burst that lands in one or two slices, and whether a window holds
// one such burst more or less would otherwise decide the figure.
func (ps *pass) sampleCPU(rate float64, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	select {
	case <-stop:
		return
	case <-time.After(time.Duration(ps.windowStart - ps.now())):
	}
	tick := time.NewTicker(cpuSlice)
	defer tick.Stop()
	at, cpu := ps.now(), cpuTime()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		at1, cpu1 := ps.now(), cpuTime()
		ktxn := rate * float64(at1-at) / 1e9 / 1000
		ps.cpuSlices = append(ps.cpuSlices, float64((cpu1-cpu).Microseconds())/1e3/ktxn)
		at, cpu = at1, cpu1
	}
}

func cpuTime() time.Duration {
	user, sys := rusage()
	return user + sys
}

// runClosedPass pushes epochs [0,to) through a fresh topology, from a
// collected heap so that the previous pass's garbage is not this one's
// collector work.
func (w *workloadRun) runClosedPass(s *stream, topo *topology, to int) (*pass, error) {
	runtime.GC()
	ps := newPass(w, s, topo, 0, to)
	done := ps.watch()
	var probes sync.WaitGroup
	ps.c0 = ps.readCounters()
	err := ps.pushClosed(w.p.Window, &probes)
	if err == nil {
		err = ps.await(done)
	}
	ps.c1 = ps.readCounters()
	if err == nil {
		probes.Wait() // every epoch is visible, so every probe is admitted
	}
	return ps, err
}

// warmPrefix replays the first prefixEpochs epochs during set-up and, on
// a columnar fleet, freezes them, so the measured window starts on a
// populated replica.
func (w *workloadRun) warmPrefix(s *stream, topo *topology) error {
	if w.prefixEpochs == 0 {
		return nil
	}
	for i := 0; i < w.prefixEpochs; i++ {
		if err := topo.fan.Send(&s.encs[i]); err != nil {
			return err
		}
	}
	ts := s.encs[w.prefixEpochs-1].LastCommitTS
	for _, r := range topo.replicas {
		r.node.Query(ts, s.tables...)
		r.node.Compact(ts)
		r.node.Vacuum(ts)
	}
	return nil
}

// setUp generates the stream, starts the fleet and replays the warm
// prefix, returning how long that took.
func (w *workloadRun) setUp() (*stream, *topology, time.Duration, error) {
	runtime.GC() // time every set-up from a collected heap, not from its predecessor's garbage
	t0 := time.Now()
	s, err := generateStream(w.p, w.cfg.Seed, w.epochs)
	if err != nil {
		return nil, nil, 0, err
	}
	topo, err := startTopology(s, w.p, w.cfg.OutDir, false)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := w.warmPrefix(s, topo); err != nil {
		return nil, nil, 0, errors.Join(err, topo.release())
	}
	return s, topo, time.Since(t0), nil
}
