package main

import (
	"math"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the benchmark declares; BENCHMARK.json lists
// the same names and units (bench_test.go holds them together).
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fresh_p50_ms", "ms"},
	{"probe_p50_ms", "ms"},
	{"ingest_txns_per_s", "1/s"},
	{"cpu_ms_per_ktxn", "ms"},
	{"wire_bytes_per_txn", "B"},
}

// perLayer are the metrics a traced run reports, in every workload; a
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"driver.late_p99_us", "us"},
	{"driver.trace_overhead_frac", "frac"},
	{"driver.backlog_growth", "ratio"},
	{"e2e.fresh_tail_ms", "ms"},
	{"e2e.fresh_tail_pct", "%"},
	{"e2e.probe_tail_ms", "ms"},
	{"e2e.probe_tail_pct", "%"},
	{"e2e.fresh_hot_p50_ms", "ms"},
	{"e2e.fresh_hot_mean_ms", "ms"},
	{"budget.fresh_sum_vs_p50_frac", "frac"},
	{"budget.probe_sum_vs_p50_frac", "frac"},
	{"primary.gen_us_per_txn", "us"},
	{"epoch.encode_us_per_epoch", "us"},
	{"ship.send_block_us_p50", "us"},
	{"ship.send_block_us_p99", "us"},
	{"ship.wire_us_p50", "us"},
	{"ship.wire_us_p99", "us"},
	{"ship.bytes_per_epoch", "B"},
	{"ship.ratio_wire_raw", "ratio"},
	{"ship.conn_writes_per_epoch", "count"},
	{"ship.ack_bytes_per_epoch", "B"},
	{"ship.reconnects", "count"},
	{"ship.retransmits", "count"},
	{"recovery.feed_us_p50", "us"},
	{"recovery.feed_us_p99", "us"},
	{"recovery.spool_append_us_per_epoch", "us"},
	{"recovery.spool_bytes_per_txn", "B"},
	{"recovery.checkpoint_ms_p50", "ms"},
	{"recovery.checkpoint_stall_ms_max", "ms"},
	{"replay.hot_stage_us_p50", "us"},
	{"replay.hot_stage_us_p99", "us"},
	{"replay.cold_stage_us_p50", "us"},
	{"replay.drill_txns_per_s", "1/s"},
	{"dispatch.drill_us_per_epoch", "us"},
	{"replay.share_dispatch", "frac"},
	{"replay.share_replay", "frac"},
	{"replay.share_commit", "frac"},
	{"cluster.fanout_send_us_per_epoch", "us"},
	{"cluster.replica_skew_ms_p50", "ms"},
	{"cluster.peer_queue_max", "count"},
	{"cluster.admit_us_p50", "us"},
	{"cluster.admit_us_p99", "us"},
	{"cluster.admit_blocked_frac", "frac"},
	{"query.get_us_p50", "us"},
	{"query.count_us_p50", "us"},
	{"query.sum_us_p50", "us"},
	{"query.scancols_us_p50", "us"},
	{"query.scankeys_us_p50", "us"},
	{"query.rows_per_s", "1/s"},
	{"colstore.compact_ms_p50", "ms"},
	{"colstore.compact_stall_ms_max", "ms"},
	{"colstore.frozen_frac", "frac"},
	{"memtable.vacuum_ms_p50", "ms"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.alloc_mb_per_ktxn", "MB"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.cpu_user_s", "s"},
	{"runtime.cpu_sys_s", "s"},
}

// samples accumulates what the measured part of one or more passes
// recorded. Latency slices hold one value per epoch or read.
type samples struct {
	openLoop bool

	freshMS, freshHotMS, readMS []float64
	readByKind                  map[int][]float64 // readMS split by query of the mix
	lateUS, sendBlockUS         []float64
	fanSendUS, skewMS           []float64
	admitUS                     []float64
	opUS                        [numOps][]float64
	ingest                      []float64 // txns/s, one per pass
	cpuPerKtxn                  []float64 // ms; per window slice, or per closed pass
	ckptMS, compactMS, vacuumMS []float64
	wireUS, feedUS, hotUS       []float64 // traced only
	coldUS                      []float64 // traced only

	txns, epochs, reads, waited int
	rows                        int64
	elapsed                     time.Duration
	user, sys                   time.Duration
	wire                        wireSnapshot
	raw, sentW, reconn, retrans int64
	gcPauseNS, allocBytes       uint64
	heapPeak                    uint64
	queueMax                    int64
	ckptStallMS, compactStallMS float64
	backlogGrowth               float64
	spoolBytes, spoolTxns       int64
	frozenRows, totalRows       int
	shareD, shareR, shareC      float64

	epochReqs, readReqs []request // traced only

	attempted int
	failures  []string
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// overlaps reports whether [lo,hi] intersects any interval.
func overlaps(ivs []interval, lo, hi int64) bool {
	for _, iv := range ivs {
		if lo <= iv.end && iv.start <= hi {
			return true
		}
	}
	return false
}

// add folds the measured part of ps into a. It must run after the
// topology closed: the feed shim's stamps are only settled then.
func (a *samples) add(ps *pass) {
	windowStart := ps.windowStart
	a.openLoop = ps.w.p.Rate > 0
	a.attempted += ps.attempted
	a.failures = append(a.failures, ps.failures...)
	readRoot := "probe"
	if ps.w.p.Analyst {
		readRoot = "olap"
	}

	var fresh []float64 // this pass only, in cut order
	firstCut, lastVisible := int64(math.MaxInt64), int64(0)
	for i := ps.from; i < ps.to; i++ {
		if ps.cutDue[i] < windowStart {
			continue
		}
		all, hot := ps.visibleAll(i), ps.visibleHot(i)
		f := ms(all - ps.cutDue[i])
		fresh = append(fresh, f)
		a.freshHotMS = append(a.freshHotMS, ms(hot-ps.cutDue[i]))
		a.lateUS = append(a.lateUS, us(ps.sendStart[i]-ps.cutDue[i]))
		a.sendBlockUS = append(a.sendBlockUS, us(ps.sendEnd[i]-ps.cutDue[i]))
		a.fanSendUS = append(a.fanSendUS, us(ps.sendEnd[i]-ps.sendStart[i]))
		slowest, earliest := 0, all
		for r := range ps.visAll {
			if ps.visAll[r][i] == all {
				slowest = r
			}
			earliest = min(earliest, ps.visAll[r][i])
		}
		a.skewMS = append(a.skewMS, ms(all-earliest))
		if overlaps(ps.ckpts, ps.cutDue[i], all) {
			a.ckptStallMS = max(a.ckptStallMS, f)
		}
		a.txns += ps.s.encs[i].TxnCount
		a.epochs++
		firstCut, lastVisible = min(firstCut, ps.sendStart[i]), max(lastVisible, all)
		if ps.topo.traced {
			a.addEpochTrace(ps, i, slowest)
		}
	}
	a.freshMS = append(a.freshMS, fresh...)
	if n := len(fresh) / 5; a.openLoop && n > 0 {
		if head := median(fresh[:n]); head > 0 {
			a.backlogGrowth = median(fresh[len(fresh)-n:]) / head
		}
	}

	for _, rs := range ps.reads {
		if rs.due < windowStart || rs.end == 0 {
			continue
		}
		lat := ms(rs.end - rs.due)
		a.readMS = append(a.readMS, lat)
		if a.readByKind == nil {
			a.readByKind = map[int][]float64{}
		}
		a.readByKind[rs.kind] = append(a.readByKind[rs.kind], lat)
		a.admitUS = append(a.admitUS, us(rs.admitted-rs.start))
		var perOp [numOps]int64
		for _, o := range rs.ops {
			perOp[o.op] += o.end - o.start
		}
		for op, ns := range perOp {
			if ns > 0 {
				a.opUS[op] = append(a.opUS[op], us(ns))
			}
		}
		a.reads++
		a.rows += rs.rows
		if rs.waited {
			a.waited++
		}
		if overlaps(ps.compacts, rs.due, rs.end) {
			a.compactStallMS = max(a.compactStallMS, lat)
		}
		if ps.topo.traced {
			a.addReadTrace(ps, rs, readRoot)
		}
	}
	a.attempted += len(ps.reads)

	for _, iv := range ps.ckpts {
		a.ckptMS = append(a.ckptMS, ms(iv.end-iv.start))
	}
	for _, iv := range ps.compacts {
		a.compactMS = append(a.compactMS, ms(iv.end-iv.start))
	}
	for _, iv := range ps.vacuums {
		a.vacuumMS = append(a.vacuumMS, ms(iv.end-iv.start))
	}

	// Window differences. An open loop's window runs from the counter
	// reading taken one epoch period before the first measured cut; a
	// closed pass is timed from its first Send to its last visibility.
	span := time.Duration(ps.c1.at - ps.c0.at)
	if ps.w.p.Rate == 0 {
		span = time.Duration(lastVisible - firstCut)
	}
	a.elapsed += span
	if span > 0 {
		a.ingest = append(a.ingest, float64(ps.measuredTxns())/span.Seconds())
	}
	if a.openLoop {
		a.cpuPerKtxn = append(a.cpuPerKtxn, ps.cpuSlices...)
	} else if n := ps.measuredTxns(); n > 0 {
		cpu := ps.c1.user + ps.c1.sys - ps.c0.user - ps.c0.sys
		a.cpuPerKtxn = append(a.cpuPerKtxn, float64(cpu.Microseconds())/float64(n))
	}
	a.user += ps.c1.user - ps.c0.user
	a.sys += ps.c1.sys - ps.c0.sys
	a.wire.writeBytes += ps.c1.wire.writeBytes - ps.c0.wire.writeBytes
	a.wire.writeCalls += ps.c1.wire.writeCalls - ps.c0.wire.writeCalls
	a.wire.readBytes += ps.c1.wire.readBytes - ps.c0.wire.readBytes
	a.raw += ps.c1.raw - ps.c0.raw
	a.sentW += ps.c1.sentW - ps.c0.sentW
	a.reconn += ps.c1.reconnects - ps.c0.reconnects
	// Every epoch of the topology's life is written once per link unless
	// a reconnect replays part of the window.
	a.retrans += max(0, ps.c1.sent-int64(ps.to*len(ps.topo.replicas)))
	a.gcPauseNS += ps.c1.mem.PauseTotalNs - ps.c0.mem.PauseTotalNs
	a.allocBytes += ps.c1.mem.TotalAlloc - ps.c0.mem.TotalAlloc
	a.heapPeak = max(a.heapPeak, ps.c1.mem.HeapInuse)
	a.queueMax = max(a.queueMax, ps.queueMax.Load())
}

func (ps *pass) measuredTxns() int {
	n := 0
	for i := ps.from; i < ps.to; i++ {
		if ps.cutDue[i] >= ps.windowStart {
			n += ps.s.encs[i].TxnCount
		}
	}
	return n
}

// addEpochTrace records epoch i's spans along the slowest replica r —
// the one whose visibility ended the epoch's freshness interval.
func (a *samples) addEpochTrace(ps *pass, i, r int) {
	sh := ps.topo.replicas[r].shim
	cut, all := ps.cutDue[i], ps.visAll[r][i]
	// Stage boundaries are stamped by different goroutines; force them
	// into order so the children tile the root.
	edge := cut
	clamp := func(t int64) int64 { edge = min(max(edge, t), all); return edge }
	bounds := []struct {
		name string
		end  int64
	}{
		{"driver.wait", clamp(ps.sendStart[i])},
		{"ship.send", clamp(ps.sendEnd[i])},
		{"ship.wire", clamp(sh.enter[i])},
		{"recovery.feed", clamp(sh.exit[i])},
		{"replay.hot_stage", clamp(ps.visHot[r][i])},
		{"replay.cold_stage", all},
	}
	req := request{{ID: i, Name: "fresh", Start: cut, End: all}}
	start := cut
	for _, b := range bounds {
		req = append(req, span{ID: i, Name: b.name, Parent: "fresh", Start: start, End: b.end})
		start = b.end
	}
	a.epochReqs = append(a.epochReqs, req)
	a.wireUS = append(a.wireUS, us(req[3].dur()))
	a.feedUS = append(a.feedUS, us(req[4].dur()))
	a.hotUS = append(a.hotUS, us(req[5].dur()))
	a.coldUS = append(a.coldUS, us(req[6].dur()))
}

// addReadTrace records one read's spans: lateness, the wait for the
// asked-for commit to be cut at all (epoch fill), admission, and every
// Snapshot call.
func (a *samples) addReadTrace(ps *pass, rs readSample, root string) {
	id := len(a.readReqs)
	req := request{{ID: id, Name: root, Start: rs.due, End: rs.end}}
	add := func(name string, lo, hi int64) {
		if hi > lo {
			req = append(req, span{ID: id, Name: name, Parent: root, Start: lo, End: hi})
		}
	}
	add("driver.wait", rs.due, rs.start)
	filled := min(max(rs.start, ps.sendStart[rs.epoch]), rs.admitted)
	add("epoch.fill", rs.start, filled)
	add("cluster.admit", filled, rs.admitted)
	for _, o := range rs.ops {
		add("query."+opNames[o.op], o.start, o.end)
	}
	a.readReqs = append(a.readReqs, req)
}

// endState reads what can only be read from a live topology, after the
// last epoch is visible and before close.
func (a *samples) endState(ps *pass) {
	a.spoolBytes += ps.topo.spoolBytes()
	a.spoolTxns += int64(ps.s.firstTxn[ps.to]) * int64(len(ps.topo.replicas))
	for _, r := range ps.topo.replicas {
		if cs := r.node.Colstore(); cs != nil {
			for _, id := range cs.Tables() {
				if base := cs.Get(id).Base(); base != nil {
					a.frozenRows += base.Len()
				}
				a.totalRows += r.node.Memtable().Table(id).Len()
			}
		}
		if r.breakdown != nil {
			a.shareD, a.shareR, a.shareC = r.breakdown.Shares()
		}
	}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func q(vs []float64, p float64) float64 { return quantile(sortedCopy(vs), p) }

// readP50 is the median read latency. The analyst's mix holds queries of
// very different sizes, and the median of their pooled latencies sits in
// a gap between two clusters, where it jumps; so each query of the mix
// gets its own median and the report is their mean. Point probes are one
// kind, for which this is the plain median.
func (a *samples) readP50() float64 {
	var medians []float64
	for _, lats := range a.readByKind {
		medians = append(medians, median(lats))
	}
	return div(sum(medians), float64(len(medians)))
}

// endToEndMetrics computes the untraced report.
func (a *samples) endToEndMetrics(setups []float64) map[string]metric {
	vals := map[string]float64{
		"setup_s":            median(setups),
		"fresh_p50_ms":       median(a.freshMS),
		"probe_p50_ms":       a.readP50(),
		"ingest_txns_per_s":  median(a.ingest),
		"cpu_ms_per_ktxn":    median(a.cpuPerKtxn),
		"wire_bytes_per_txn": div(float64(a.wire.writeBytes), float64(a.txns)),
	}
	return named(endToEnd, vals)
}

// drills are the layer costs timed alone, outside any run.
type drills struct {
	genUSPerTxn, encodeUSPerEpoch, spoolAppendUSPerEpoch float64
	replayTxnsPerS, dispatchUSPerEpoch                   float64
}

// perLayerMetrics computes the traced report. untracedFreshP50 is the
// same workload's untraced median, for the tracing overhead.
func (a *samples) perLayerMetrics(d drills, untracedFreshP50 float64, budgets []budget) map[string]metric {
	fresh, reads := summarize(a.freshMS), summarize(a.readMS)
	epochs, ktxn := float64(a.epochs), float64(a.txns)/1000
	vals := map[string]float64{
		"driver.late_p99_us":         q(a.lateUS, 0.99),
		"driver.trace_overhead_frac": div(fresh.P50, untracedFreshP50) - 1,
		"driver.backlog_growth":      a.backlogGrowth,
		"e2e.fresh_tail_ms":          fresh.Tail,
		"e2e.fresh_tail_pct":         fresh.TailPct,
		"e2e.probe_tail_ms":          reads.Tail,
		"e2e.probe_tail_pct":         reads.TailPct,
		"e2e.fresh_hot_p50_ms":       median(a.freshHotMS),
		"e2e.fresh_hot_mean_ms":      div(sum(a.freshHotMS), float64(len(a.freshHotMS))),

		"primary.gen_us_per_txn":    d.genUSPerTxn,
		"epoch.encode_us_per_epoch": d.encodeUSPerEpoch,

		"ship.send_block_us_p50":     q(a.sendBlockUS, 0.5),
		"ship.send_block_us_p99":     q(a.sendBlockUS, 0.99),
		"ship.wire_us_p50":           q(a.wireUS, 0.5),
		"ship.wire_us_p99":           q(a.wireUS, 0.99),
		"ship.bytes_per_epoch":       div(float64(a.wire.writeBytes), epochs),
		"ship.ratio_wire_raw":        div(float64(a.sentW), float64(a.raw)),
		"ship.conn_writes_per_epoch": div(float64(a.wire.writeCalls), epochs),
		"ship.ack_bytes_per_epoch":   div(float64(a.wire.readBytes), epochs),
		"ship.reconnects":            float64(a.reconn),
		"ship.retransmits":           float64(a.retrans),

		"recovery.feed_us_p50":               q(a.feedUS, 0.5),
		"recovery.feed_us_p99":               q(a.feedUS, 0.99),
		"recovery.spool_append_us_per_epoch": d.spoolAppendUSPerEpoch,
		"recovery.spool_bytes_per_txn":       div(float64(a.spoolBytes), float64(a.spoolTxns)),
		"recovery.checkpoint_ms_p50":         q(a.ckptMS, 0.5),
		"recovery.checkpoint_stall_ms_max":   a.ckptStallMS,

		"replay.hot_stage_us_p50":     q(a.hotUS, 0.5),
		"replay.hot_stage_us_p99":     q(a.hotUS, 0.99),
		"replay.cold_stage_us_p50":    q(a.coldUS, 0.5),
		"replay.drill_txns_per_s":     d.replayTxnsPerS,
		"dispatch.drill_us_per_epoch": d.dispatchUSPerEpoch,
		"replay.share_dispatch":       a.shareD,
		"replay.share_replay":         a.shareR,
		"replay.share_commit":         a.shareC,

		"cluster.fanout_send_us_per_epoch": div(sum(a.fanSendUS), epochs),
		"cluster.replica_skew_ms_p50":      q(a.skewMS, 0.5),
		"cluster.peer_queue_max":           float64(a.queueMax),
		"cluster.admit_us_p50":             q(a.admitUS, 0.5),
		"cluster.admit_us_p99":             q(a.admitUS, 0.99),
		"cluster.admit_blocked_frac":       div(float64(a.waited), float64(a.reads)),

		"query.rows_per_s": div(float64(a.rows), a.elapsed.Seconds()),

		"colstore.compact_ms_p50":       q(a.compactMS, 0.5),
		"colstore.compact_stall_ms_max": a.compactStallMS,
		"colstore.frozen_frac":          div(float64(a.frozenRows), float64(a.totalRows)),
		"memtable.vacuum_ms_p50":        q(a.vacuumMS, 0.5),

		"runtime.gc_pause_ms_total": float64(a.gcPauseNS) / 1e6,
		"runtime.alloc_mb_per_ktxn": div(float64(a.allocBytes)/(1<<20), ktxn),
		"runtime.heap_peak_mb":      float64(a.heapPeak) / (1 << 20),
		"runtime.cpu_user_s":        a.user.Seconds(),
		"runtime.cpu_sys_s":         a.sys.Seconds(),
	}
	for op, name := range opNames {
		vals["query."+name+"_us_p50"] = q(a.opUS[op], 0.5)
	}
	for _, b := range budgets {
		if b.Root == "fresh" {
			vals["budget.fresh_sum_vs_p50_frac"] = b.OffFrac
		} else {
			vals["budget.probe_sum_vs_p50_frac"] = b.OffFrac
		}
	}
	return named(perLayer, vals)
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// named attaches the declared units. A declared metric that was never
// computed is a bug in this file, so it panics rather than report 0.
func named(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("bench: metric " + d.name + " declared but not computed")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// environment is recorded with every report.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
}

func currentEnvironment() environment {
	return environment{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()}
}
