// Package htap is the top-level façade of the library: it wires the backup
// node together (Memtable, group plan, replayer implementation) and
// provides the experiment harness used by the benchmarks, the examples and
// cmd/aetsbench to reproduce the paper's tables and figures.
package htap

import (
	"fmt"
	"time"

	"aets/internal/alloc"
	"aets/internal/baselines"
	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/replay"
	"aets/internal/wal"
)

// Replayer is the common surface of the four replay algorithms: the AETS
// engine, ungrouped TPLR, and the ATR and C5 baselines.
type Replayer interface {
	// Name returns the algorithm name.
	Name() string
	// Start launches the replayer's goroutines.
	Start()
	// Feed enqueues one encoded epoch; epochs must arrive in order. It
	// returns an error if the replayer was never started or already
	// stopped.
	Feed(*epoch.Encoded) error
	// Drain blocks until all fed epochs are replayed.
	Drain()
	// Stop drains and terminates the replayer.
	Stop()
	// WaitVisible blocks until data committed at or before qts in the given
	// tables is visible to readers (Algorithm 3 or the baseline's
	// equivalent snapshot rule).
	WaitVisible(qts int64, tables []wal.TableID)
	// WaitGlobal blocks until the global visible timestamp reaches qts,
	// returning true, or until the replayer stops short of it — also
	// when it was stopped without ever starting — returning false. Only
	// the replayer's global publish wakes it.
	WaitGlobal(qts int64) bool
	// GlobalTS returns the current global visible timestamp.
	GlobalTS() int64
	// Err returns the first fatal replay error, if any.
	Err() error
}

// Kind selects a replay algorithm.
type Kind string

// The four algorithms of the evaluation.
const (
	KindAETS Kind = "aets"
	KindTPLR Kind = "tplr"
	KindATR  Kind = "atr"
	KindC5   Kind = "c5"
)

// Kinds lists all algorithms in the paper's presentation order.
var Kinds = []Kind{KindAETS, KindATR, KindC5, KindTPLR}

// Options configures a replayer.
type Options struct {
	// Workers is the replay thread budget T (default GOMAXPROCS).
	Workers int
	// Urgency is AETS's thread-allocation urgency λ (default log-rate).
	Urgency alloc.UrgencyFunc
	// SnapshotPeriod is C5's snapshot advance period (default 5 ms).
	SnapshotPeriod time.Duration
	// Pipeline is the replay pipeline depth for AETS/TPLR: how many epochs
	// may be in flight at once. Values ≤ 0 mean 1, one epoch at a time;
	// there is no separate serial path.
	Pipeline int
	// Breakdown, when non-nil, records the Table II phase timing
	// (AETS/TPLR only).
	Breakdown *metrics.Breakdown
	// Metrics receives the replayer's operational metrics (counters,
	// gauges, latency histograms). Defaults to metrics.Default; tests
	// pass their own registry to scrape in isolation.
	Metrics *metrics.Registry
	// Columnar equips the node with a columnar store: epoch-aligned
	// compaction freezes cold record chains into immutable column-major
	// segments and queries are planned as segment + delta merges. The
	// compactor only runs when driven (Node.Compact or StartCompactLoop),
	// so a columnar node with no cadence behaves exactly row-wise.
	Columnar bool
}

// NewReplayer builds a replayer of the given kind over mt. plan is the
// table-group plan; ATR and C5 ignore it (they are ungrouped), TPLR
// collapses it to a single group.
func NewReplayer(kind Kind, mt *memtable.Memtable, plan *grouping.Plan, opts Options) (Replayer, error) {
	// All four algorithms funnel entries through the sharded memtable
	// index; expose its shard-lock wait distribution regardless of kind.
	// (replay.New wires the same histogram for AETS/TPLR — same registry,
	// same histogram, so the double wiring is idempotent.)
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	mt.SetWaitObserver(reg.Histogram("memtable_shard_wait_ns"))
	switch kind {
	case KindAETS:
		return NewAETS(mt, plan, opts), nil
	case KindTPLR:
		single := grouping.SingleGroup(planTables(plan))
		e := replay.New("TPLR", mt, single, replay.Config{
			Workers: opts.Workers, Urgency: opts.Urgency,
			TwoStage: false, Breakdown: opts.Breakdown,
			Pipeline: opts.Pipeline, Registry: opts.Metrics,
		})
		return e, nil
	case KindATR:
		return baselines.NewATR(mt, opts.Workers), nil
	case KindC5:
		return baselines.NewC5(mt, opts.Workers, opts.SnapshotPeriod), nil
	default:
		return nil, fmt.Errorf("htap: unknown replayer kind %q", kind)
	}
}

// NewAETS builds the full AETS engine (two-stage, grouped, adaptive).
// The returned value also satisfies Replayer.
func NewAETS(mt *memtable.Memtable, plan *grouping.Plan, opts Options) *replay.Engine {
	e := replay.New("AETS", mt, plan, replay.Config{
		Workers: opts.Workers, Urgency: opts.Urgency,
		TwoStage: true, Breakdown: opts.Breakdown,
		Pipeline: opts.Pipeline, Registry: opts.Metrics,
	})
	return e
}

func planTables(p *grouping.Plan) []wal.TableID {
	var out []wal.TableID
	for _, g := range p.Groups {
		out = append(out, g.Tables...)
	}
	return out
}
