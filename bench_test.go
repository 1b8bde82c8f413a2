// Package aets_test holds the testing.B benchmark harness: one benchmark
// per paper table/figure, mirroring the cmd/aetsbench subcommands at sizes
// suitable for `go test -bench`. The bench names index into EXPERIMENTS.md.
package aets_test

import (
	"fmt"
	"testing"
	"time"

	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/predictor"
	"aets/internal/primary"
	"aets/internal/sim"
	"aets/internal/workload"
)

const (
	benchTxns  = 8000
	benchEpoch = 1024
)

// --- Table I -------------------------------------------------------------

func BenchmarkTable1HotRatio(b *testing.B) {
	gens := []func() workload.Generator{
		func() workload.Generator { return workload.NewTPCC(20) },
		func() workload.Generator { return workload.NewSEATS() },
		func() workload.Generator { return workload.NewCHBench(20) },
		func() workload.Generator { return workload.NewBusTracker() },
	}
	for _, mk := range gens {
		g := mk()
		b.Run(g.Name(), func(b *testing.B) {
			for b.Loop() {
				ratio := workload.HotEntryRatio(mk(), 5000, 1)
				b.ReportMetric(ratio*100, "hot%")
			}
		})
	}
}

// --- Fig 8 / Fig 9: replay comparison ------------------------------------

func benchReplay(b *testing.B, kind htap.Kind, exp htap.Experiment) {
	b.ReportAllocs()
	for b.Loop() {
		res, err := htap.Run(kind, exp)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput.TxnsPerSec(), "txns/s")
		b.ReportMetric(res.Visibility.Mean(), "visdelay-us")
		b.ReportMetric(float64(res.HotReplayTime.Microseconds()), "hot-us")
	}
}

func tpccExperiment(queries int) htap.Experiment {
	return htap.Experiment{
		NewGen:     func() workload.Generator { return workload.NewTPCC(20) },
		Rates:      htap.TPCCRates(1000),
		Txns:       benchTxns,
		EpochSize:  benchEpoch,
		Workers:    8,
		Queries:    queries,
		QueryEvery: 200 * time.Microsecond,
		Seed:       1,
	}
}

func BenchmarkFig8TPCC(b *testing.B) {
	for _, kind := range htap.Kinds {
		b.Run(string(kind), func(b *testing.B) {
			benchReplay(b, kind, tpccExperiment(benchTxns/40))
		})
	}
}

func BenchmarkFig9BusTracker(b *testing.B) {
	bt := workload.NewBusTracker()
	exp := htap.Experiment{
		NewGen:     func() workload.Generator { return workload.NewBusTracker() },
		Rates:      bt.Rates(0),
		Txns:       benchTxns,
		EpochSize:  benchEpoch,
		Workers:    8,
		Queries:    benchTxns / 40,
		QueryEvery: 200 * time.Microsecond,
		Seed:       1,
	}
	for _, kind := range htap.Kinds {
		b.Run(string(kind), func(b *testing.B) {
			benchReplay(b, kind, exp)
		})
	}
}

// --- Fig 10: CH-benCHmark per-query delay --------------------------------

func BenchmarkFig10CHBench(b *testing.B) {
	exp := htap.Experiment{
		NewGen:     func() workload.Generator { return workload.NewCHBench(20) },
		Rates:      htap.CHRates(workload.NewCHBench(20)),
		PerTable:   true,
		Txns:       benchTxns,
		EpochSize:  benchEpoch,
		Workers:    8,
		Queries:    benchTxns / 20,
		QueryEvery: 150 * time.Microsecond,
		Seed:       1,
	}
	for _, kind := range []htap.Kind{htap.KindAETS, htap.KindATR, htap.KindC5} {
		b.Run(string(kind), func(b *testing.B) {
			benchReplay(b, kind, exp)
		})
	}
}

// --- Fig 11: scalability on the calibrated simulator ---------------------

func BenchmarkFig11Scalability(b *testing.B) {
	gen := workload.NewTPCC(20)
	p := primary.New(gen, 1)
	raw := p.GenerateTxns(benchTxns)
	plan := grouping.Build(htap.TPCCRates(1000), workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.05, MinPts: 2})
	tr := sim.BuildTrace(raw, plan, benchEpoch)
	costs := sim.DefaultCosts()

	sims := map[string]func(*sim.Trace, int, sim.Costs) sim.Result{
		"AETS": sim.SimulateAETS, "ATR": sim.SimulateATR,
		"C5": sim.SimulateC5, "TPLR": sim.SimulateTPLR,
	}
	for _, threads := range []int{1, 16, 64} {
		for name, f := range sims {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				for b.Loop() {
					r := f(tr, threads, costs)
					b.ReportMetric(r.TxnsPerSec(), "sim-txns/s")
				}
			})
		}
	}
}

// --- Table II: time breakdown ---------------------------------------------

func BenchmarkTable2Breakdown(b *testing.B) {
	exp := tpccExperiment(0)
	for b.Loop() {
		res, err := htap.Run(htap.KindAETS, exp)
		if err != nil {
			b.Fatal(err)
		}
		d, r, c := res.Breakdown.Shares()
		b.ReportMetric(d*100, "dispatch%")
		b.ReportMetric(r*100, "replay%")
		b.ReportMetric(c*100, "commit%")
	}
}

// --- Fig 12: epoch size sweep ----------------------------------------------

func BenchmarkFig12EpochSize(b *testing.B) {
	for _, size := range []int{64, 512, 2048, 8192} {
		b.Run(fmt.Sprintf("epoch=%d", size), func(b *testing.B) {
			exp := tpccExperiment(benchTxns / 40)
			exp.EpochSize = size
			for b.Loop() {
				res, err := htap.Run(htap.KindAETS, exp)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Visibility.Mean(), "visdelay-us")
			}
		})
	}
}

// --- Fig 13: adaptive allocation -------------------------------------------

func BenchmarkFig13Adaptive(b *testing.B) {
	cfg := htap.AdaptiveConfig{
		Slots: 3, WarmupSlots: 1, TxnsPerSlot: 1024, EpochSize: 512,
		Workers: 8, QueriesPerSlot: 32, TrainSlots: 120,
		DTGMHidden: 8, DTGMEpochs: 2, Seed: 5,
	}
	for _, s := range []htap.Strategy{htap.StrategyDTGM, htap.StrategyHA, htap.StrategyNOAC} {
		b.Run(string(s), func(b *testing.B) {
			for b.Loop() {
				res, err := htap.RunAdaptive(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Mean(), "visdelay-us")
			}
		})
	}
}

// --- Tables III/IV and Fig 14: predictors -----------------------------------

func predictorSeries() ([][]float64, [][]float64) {
	bt := workload.NewBusTracker()
	series, _ := bt.RateSeries(420)
	return series, bt.AccessGraph()
}

func BenchmarkTable3Predictors(b *testing.B) {
	series, adj := predictorSeries()
	models := map[string]func() predictor.Predictor{
		"HA":     func() predictor.Predictor { return predictor.NewHA() },
		"ARIMA":  func() predictor.Predictor { return predictor.NewARIMA() },
		"QB5000": func() predictor.Predictor { q := predictor.NewQB5000(); q.Epochs = 3; return q },
		"DTGM": func() predictor.Predictor {
			cfg := predictor.DefaultDTGMConfig(15)
			cfg.Hidden, cfg.Epochs = 12, 4
			return predictor.NewDTGM(adj, cfg)
		},
	}
	for name, mk := range models {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				mape, err := predictor.Evaluate(mk(), series, 300, 60, 15)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(mape*100, "MAPE%")
			}
		})
	}
}

func BenchmarkTable4GCNAblation(b *testing.B) {
	series, adj := predictorSeries()
	for _, useGCN := range []bool{true, false} {
		name := "DTGM"
		if !useGCN {
			name = "DTGM-wo-gcn"
		}
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				cfg := predictor.DefaultDTGMConfig(15)
				cfg.Hidden, cfg.Epochs, cfg.UseGCN = 12, 4, useGCN
				mape, err := predictor.Evaluate(predictor.NewDTGM(adj, cfg), series, 300, 60, 15)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(mape*100, "MAPE%")
			}
		})
	}
}

func BenchmarkFig14HiddenDim(b *testing.B) {
	series, adj := predictorSeries()
	for _, dim := range []int{8, 16, 48} {
		b.Run(fmt.Sprintf("hidden=%d", dim), func(b *testing.B) {
			for b.Loop() {
				cfg := predictor.DefaultDTGMConfig(15)
				cfg.Hidden, cfg.Epochs = dim, 4
				mape, err := predictor.Evaluate(predictor.NewDTGM(adj, cfg), series, 300, 60, 15)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(mape*100, "MAPE%")
			}
		})
	}
}

// --- Ablations beyond the paper's figures ----------------------------------

// BenchmarkAblationTwoStage isolates the two-stage scheduler: grouped
// replay with and without hot-first staging.
func BenchmarkAblationTwoStage(b *testing.B) {
	for _, kind := range []htap.Kind{htap.KindAETS, htap.KindTPLR} {
		b.Run(string(kind), func(b *testing.B) {
			benchReplay(b, kind, tpccExperiment(benchTxns/40))
		})
	}
}
