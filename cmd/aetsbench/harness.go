package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/wal"
	"aets/internal/workload"
)

// Experiment describes one visibility/throughput run: the workload, its
// grouping, how many transactions to replay, and the concurrent analytical
// query load.
type Experiment struct {
	// NewGen builds a fresh workload generator. A factory rather than an
	// instance because generators carry counters (order IDs etc.): every
	// algorithm must replay the *identical* stream, which requires a fresh
	// generator with the same seed per run.
	NewGen    func() workload.Generator
	Rates     map[wal.TableID]float64 // access rates driving the plan
	PerTable  bool                    // one group per hot table (CH setup)
	Txns      int
	EpochSize int
	Workers   int
	// Queries is the number of analytical queries issued concurrently with
	// replay; 0 disables the query load.
	Queries int
	// QueryEvery paces query arrivals (default 500µs).
	QueryEvery time.Duration
	// PrimaryRate paces epoch shipping at the given primary transaction
	// rate (txns/second). 0 ships as fast as possible, which turns
	// visibility delays into pure backlog measurements; visibility
	// experiments should pace at a rate the backup can absorb (the paper
	// replicates "in epoch mode, simulating a real-time environment").
	// Use CalibrateRate to derive one from the AETS replay throughput.
	PrimaryRate float64
	Seed        int64
}

func (e *Experiment) fill() {
	if e.EpochSize == 0 {
		e.EpochSize = epoch.DefaultSize
	}
	if e.QueryEvery == 0 {
		e.QueryEvery = 500 * time.Microsecond
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
}

// Plan builds the experiment's group plan from its rates.
func (e *Experiment) Plan() *grouping.Plan {
	return grouping.Build(e.Rates, workload.TableIDs(e.NewGen().Tables()),
		grouping.Options{PerTable: e.PerTable, Eps: 0.05, MinPts: 2})
}

// RunResult is the outcome of one Run.
type RunResult struct {
	Algorithm  string
	Throughput metrics.Throughput
	// HotReplayTime is the cumulative replay time spent on hot-table
	// groups (stage 1); ColdReplayTime is the total replay time (hot plus
	// cold stages). For the ungrouped ATR and C5 baselines both equal the
	// end-to-end replay time: they cannot finish the hot class early
	// (Fig 8(b)/9(b)).
	HotReplayTime  time.Duration
	ColdReplayTime time.Duration
	// Visibility collects the per-query visibility delays.
	Visibility *metrics.DelayRecorder
	// PerQuery collects visibility delays per analytical query name
	// (Fig 10).
	PerQuery map[string]*metrics.DelayRecorder
	// Breakdown is the Table II phase accounting (AETS/TPLR only).
	Breakdown *metrics.Breakdown
}

// Run replays the experiment's workload on a fresh backup of the given
// kind while issuing the analytical query load, and reports throughput,
// hot/cold replay times and visibility delays.
func Run(kind htap.Kind, exp Experiment) (*RunResult, error) {
	exp.fill()
	gen := exp.NewGen()
	p := primary.New(gen, exp.Seed)
	encs := p.GenerateEncoded(exp.Txns, exp.EpochSize)
	lastTS := encs[len(encs)-1].LastCommitTS

	var bd metrics.Breakdown
	mt := memtable.New()
	r, err := htap.NewReplayer(kind, mt, exp.Plan(), htap.Options{
		Workers: exp.Workers, Breakdown: &bd,
	})
	if err != nil {
		return nil, err
	}

	// Exact recorders: the harness reproduces the paper's percentile
	// tables over bounded runs, where reservoir estimates would add noise.
	res := &RunResult{
		Algorithm:  r.Name(),
		Visibility: new(metrics.DelayRecorder),
		PerQuery:   make(map[string]*metrics.DelayRecorder),
		Breakdown:  &bd,
	}
	queries := gen.Queries()
	for _, q := range queries {
		res.PerQuery[q.Name] = new(metrics.DelayRecorder)
	}

	var shipped atomic.Int64
	start := time.Now()

	// snapshotTS returns a query's qts: the freshest primary snapshot the
	// backup knows of — the commit timestamp of the last *shipped* epoch.
	// Transactions still assembling into the next epoch are not part of
	// any query's snapshot; their freshness cost is the epoch assembly
	// latency, which Fig 12 reports as a separate column (folding it into
	// every query's wait would just add epoch/2÷rate to all algorithms
	// equally and drown the ordering signal).
	snapshotTS := func() int64 {
		return shipped.Load()
	}

	// Concurrent analytical query load: each query reads the freshest
	// primary snapshot available at its arrival (Algorithm 3's qts). A
	// small pool of client goroutines keeps arrivals flowing even while
	// individual queries block on visibility (an open-ish arrival process;
	// a single closed-loop client would stall the whole load behind one
	// long wait).
	var queryWG sync.WaitGroup
	stopQueries := make(chan struct{})
	if exp.Queries > 0 && len(queries) > 0 {
		const clients = 4
		per := exp.Queries / clients
		if per == 0 {
			per = 1
		}
		for c := 0; c < clients; c++ {
			queryWG.Add(1)
			go func(c int) {
				defer queryWG.Done()
				rng := rand.New(rand.NewSource(exp.Seed + 1000 + int64(c)))
				interval := exp.QueryEvery * clients
				for issued := 0; issued < per; issued++ {
					select {
					case <-stopQueries:
						return
					case <-time.After(interval):
					}
					qts := snapshotTS()
					if qts == 0 {
						issued-- // not an arrival yet: nothing committed
						continue
					}
					q := queries[rng.Intn(len(queries))]
					t0 := time.Now()
					r.WaitVisible(qts, q.Tables)
					d := time.Since(t0)
					res.Visibility.Record(d)
					res.PerQuery[q.Name].Record(d)
				}
			}(c)
		}
	}

	r.Start()
	var interval time.Duration
	if exp.PrimaryRate > 0 {
		interval = time.Duration(float64(exp.EpochSize) / exp.PrimaryRate * float64(time.Second))
	}
	// An epoch ships when its last transaction has committed on the
	// primary, i.e. at the *end* boundary of its assembly interval — that
	// is what makes oversized epochs cost freshness (Fig 12).
	next := time.Now()
	for i := range encs {
		if interval > 0 {
			next = next.Add(interval)
			if now := time.Now(); now.Before(next) {
				time.Sleep(next.Sub(now))
			}
		}
		if err := r.Feed(&encs[i]); err != nil {
			close(stopQueries)
			queryWG.Wait()
			r.Stop()
			return nil, err
		}
		shipped.Store(encs[i].LastCommitTS)
	}
	r.Drain()
	elapsed := time.Since(start)
	r.WaitVisible(lastTS, workload.TableIDs(gen.Tables()))
	close(stopQueries)
	queryWG.Wait()
	r.Stop()

	if staged, ok := r.(interface {
		StageTimes() (time.Duration, time.Duration)
	}); ok {
		hot, cold := staged.StageTimes()
		res.HotReplayTime = hot
		res.ColdReplayTime = hot + cold
	} else {
		res.HotReplayTime = elapsed
		res.ColdReplayTime = elapsed
	}

	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", r.Name(), err)
	}
	res.Throughput = metrics.Throughput{Txns: exp.Txns, Elapsed: elapsed}
	return res, nil
}

// CalibrateRate measures AETS's replay throughput on the experiment
// without query load or pacing and returns the given fraction of it — the
// primary rate at which a visibility experiment keeps the backup loaded
// but not unboundedly behind.
func CalibrateRate(exp Experiment, fraction float64) (float64, error) {
	exp.Queries = 0
	exp.PrimaryRate = 0
	if exp.Txns > 20000 {
		exp.Txns = 20000
	}
	res, err := Run(htap.KindAETS, exp)
	if err != nil {
		return 0, err
	}
	if fraction <= 0 {
		fraction = 0.6
	}
	return res.Throughput.TxnsPerSec() * fraction, nil
}

// RunAll runs the experiment across the given kinds on identical inputs.
func RunAll(kinds []htap.Kind, exp Experiment) ([]*RunResult, error) {
	out := make([]*RunResult, 0, len(kinds))
	for _, k := range kinds {
		r, err := Run(k, exp)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
