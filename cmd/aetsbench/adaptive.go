package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"aets/internal/alloc"
	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/predictor"
	"aets/internal/primary"
	"aets/internal/wal"
	"aets/internal/workload"
)

// Strategy selects the thread-allocation policy of the Fig 13 experiment.
type Strategy string

// The three policies compared in Fig 13.
const (
	// StrategyDTGM is full AETS: DTGM-predicted access rates feed the
	// grouping and the λ=log(r) thread allocation.
	StrategyDTGM Strategy = "AETS"
	// StrategyHA is AETS-HA: the trailing five-minute average access rate
	// stands in for the prediction.
	StrategyHA Strategy = "AETS-HA"
	// StrategyNOAC is AETS-NOAC: thread allocation considers only the
	// un-replayed log size (λ=1).
	StrategyNOAC Strategy = "AETS-NOAC"
)

// AdaptiveConfig parameterises the Fig 13 run: BusTracker driven slot by
// slot (one slot = one simulated minute) with time-varying access rates.
type AdaptiveConfig struct {
	Slots          int // measured slots (paper: 25 after 5 warm-up)
	WarmupSlots    int
	TxnsPerSlot    int
	EpochSize      int
	Workers        int
	QueriesPerSlot int
	TrainSlots     int // history slots used to fit DTGM
	DTGMHidden     int // hidden dim (paper: 48); smaller is faster
	DTGMEpochs     int
	Seed           int64
}

func (c *AdaptiveConfig) fill() {
	if c.Slots == 0 {
		c.Slots = 25
	}
	if c.WarmupSlots == 0 {
		c.WarmupSlots = 5
	}
	if c.TxnsPerSlot == 0 {
		c.TxnsPerSlot = 4096
	}
	if c.EpochSize == 0 {
		c.EpochSize = 2048
	}
	if c.QueriesPerSlot == 0 {
		c.QueriesPerSlot = 64
	}
	if c.TrainSlots == 0 {
		c.TrainSlots = 600
	}
	if c.DTGMHidden == 0 {
		c.DTGMHidden = 24
	}
	if c.DTGMEpochs == 0 {
		c.DTGMEpochs = 12
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
}

// AdaptiveResult reports the per-slot mean visibility delay of one policy.
type AdaptiveResult struct {
	Strategy Strategy
	// PerSlotMeanUS is the mean visibility delay (µs) of each measured
	// slot — the Fig 13 series.
	PerSlotMeanUS []float64
}

// Mean returns the overall mean of the per-slot means.
func (r *AdaptiveResult) Mean() float64 {
	if len(r.PerSlotMeanUS) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.PerSlotMeanUS {
		s += v
	}
	return s / float64(len(r.PerSlotMeanUS))
}

// RunAdaptive executes the Fig 13 experiment for one policy: BusTracker
// runs slot by slot, the policy re-predicts table access rates before each
// slot, the engine's plan is rebuilt accordingly, and each slot's queries
// (drawn from the *true* rate distribution) record their visibility delay.
func RunAdaptive(strategy Strategy, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	cfg.fill()
	bt := workload.NewBusTracker()
	allTables := workload.TableIDs(bt.Tables())
	series, hotIDs := bt.RateSeries(cfg.TrainSlots + cfg.WarmupSlots + cfg.Slots)

	// Rate provider per strategy. slot is an absolute index into series.
	var rateAt func(slot int) map[wal.TableID]float64
	urgency := alloc.LogUrgency
	switch strategy {
	case StrategyDTGM:
		dcfg := predictor.DTGMConfig{
			Window: 12, Horizon: 1, Hidden: cfg.DTGMHidden, Layers: 2, Hops: 2,
			Epochs: cfg.DTGMEpochs, Batch: 16, LR: 3e-3, Dropout: 0.2,
			UseGCN: true, Seed: cfg.Seed,
		}
		d := predictor.NewDTGM(bt.AccessGraph(), dcfg)
		if err := d.Fit(series[:cfg.TrainSlots]); err != nil {
			return nil, err
		}
		rateAt = func(slot int) map[wal.TableID]float64 {
			recent := series[max(0, slot-12):slot]
			pred := d.Predict(recent, 1)
			out := make(map[wal.TableID]float64, len(hotIDs))
			for j, id := range hotIDs {
				out[id] = pred[0][j]
			}
			return out
		}
	case StrategyHA:
		rateAt = func(slot int) map[wal.TableID]float64 {
			out := make(map[wal.TableID]float64, len(hotIDs))
			from := max(0, slot-5)
			for j, id := range hotIDs {
				s := 0.0
				for k := from; k < slot; k++ {
					s += series[k][j]
				}
				out[id] = s / float64(max(slot-from, 1))
			}
			return out
		}
	case StrategyNOAC:
		urgency = alloc.NoURgency
		rateAt = func(int) map[wal.TableID]float64 {
			// Grouping still separates hot from cold tables, but every hot
			// group carries the same nominal rate: allocation sees log
			// size only.
			out := make(map[wal.TableID]float64, len(hotIDs))
			for _, id := range hotIDs {
				out[id] = 1
			}
			return out
		}
	default:
		return nil, fmt.Errorf("unknown adaptive strategy %q", strategy)
	}

	p := primary.New(bt, cfg.Seed)
	mt := memtable.New()
	base := cfg.TrainSlots
	engine := htap.NewAETS(mt, busTrackerPlan(allTables, rateAt(base)), htap.Options{
		Workers: cfg.Workers, Urgency: urgency,
	})
	engine.Start()
	defer engine.Stop()

	res := &AdaptiveResult{Strategy: strategy}
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	var shipped atomic.Int64
	var seq uint64

	for slot := 0; slot < cfg.WarmupSlots+cfg.Slots; slot++ {
		abs := base + slot
		engine.SetPlan(busTrackerPlan(allTables, rateAt(abs)))

		encs := p.GenerateEncoded(cfg.TxnsPerSlot, cfg.EpochSize)
		trueRates := series[abs]

		// Ship the whole minute's epochs, then issue the minute's queries
		// while replay catches up: each query snapshots the freshest
		// shipped timestamp (Algorithm 3's qts) and its visibility delay is
		// the remaining replay time of the groups it touches — which is
		// exactly what the thread-allocation policy controls.
		for i := range encs {
			encs[i].Seq = seq
			seq++
			if err := engine.Feed(&encs[i]); err != nil {
				return nil, err
			}
			shipped.Store(encs[i].LastCommitTS)
		}

		delays := new(metrics.DelayRecorder)
		queryDone := make(chan struct{})
		go func() {
			defer close(queryDone)
			for q := 0; q < cfg.QueriesPerSlot; q++ {
				table := sampleHot(rng, hotIDs, trueRates)
				qts := shipped.Load()
				t0 := time.Now()
				engine.WaitVisible(qts, []wal.TableID{table})
				delays.Record(time.Since(t0))
				time.Sleep(20 * time.Microsecond)
			}
		}()

		engine.Drain()
		<-queryDone

		if slot >= cfg.WarmupSlots {
			res.PerSlotMeanUS = append(res.PerSlotMeanUS, delays.Mean())
		}
	}
	if err := engine.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// busTrackerPlan rebuilds the dynamic BusTracker grouping from predicted
// rates: DBSCAN clusters of similarly rated hot tables, singleton cold
// groups ("the grouping is determined dynamically", §VI-A3).
func busTrackerPlan(all []wal.TableID, rates map[wal.TableID]float64) *grouping.Plan {
	return grouping.Build(rates, all, grouping.Options{Eps: 0.3, MinPts: 2})
}

func sampleHot(rng *rand.Rand, ids []wal.TableID, rates []float64) wal.TableID {
	total := 0.0
	for _, r := range rates {
		total += r
	}
	if total <= 0 {
		return ids[rng.Intn(len(ids))]
	}
	x := rng.Float64() * total
	for j, r := range rates {
		x -= r
		if x <= 0 {
			return ids[j]
		}
	}
	return ids[len(ids)-1]
}
