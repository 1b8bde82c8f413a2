package main

import (
	"fmt"
	"time"

	"aets/internal/htap"
	"aets/internal/workload"
)

// printComparison renders the Fig 8/9-style three panels: normalised
// replay throughput (ATR = 1.0), normalised replay time (AETS cold = 1.0),
// and mean visibility delay.
func printComparison(results []*RunResult) {
	var atrTPS float64
	var aetsCold time.Duration
	for _, r := range results {
		if r.Algorithm == "ATR" {
			atrTPS = r.Throughput.TxnsPerSec()
		}
		if r.Algorithm == "AETS" {
			aetsCold = r.ColdReplayTime
		}
	}
	if atrTPS == 0 {
		atrTPS = 1
	}
	if aetsCold == 0 {
		aetsCold = 1
	}
	fmt.Printf("%-8s %12s %12s %12s %12s %14s %14s\n",
		"algo", "txns/s", "norm-tput", "hot-time", "total-time", "norm-time(hot)", "vis-delay(us)")
	for _, r := range results {
		tps := r.Throughput.TxnsPerSec()
		fmt.Printf("%-8s %12.0f %12.2f %12v %12v %14.2f %14.1f\n",
			r.Algorithm, tps, tps/atrTPS,
			r.HotReplayTime.Round(time.Millisecond),
			r.ColdReplayTime.Round(time.Millisecond),
			float64(r.HotReplayTime)/float64(aetsCold),
			r.Visibility.Mean())
	}
}

// runFig8 compares AETS/ATR/C5/TPLR on TPC-C with the paper's grouping.
func runFig8(o opts) error {
	txns := o.Txns
	if txns == 0 {
		txns = 60000
		if o.Quick {
			txns = 6000
		}
	}
	exp := Experiment{
		NewGen:     func() workload.Generator { return workload.NewTPCC(20) },
		Rates:      htap.TPCCRates(1000),
		Txns:       txns,
		EpochSize:  o.Epoch,
		Workers:    o.Workers,
		Queries:    txns / 20,
		QueryEvery: 200 * time.Microsecond,
		Seed:       o.Seed,
	}
	return runComparison(exp, htap.Kinds)
}

// runComparison runs two passes per algorithm over identical inputs: an
// unpaced pass for throughput and replay time, and a pass paced at 35% of
// the calibrated AETS rate for visibility delays — low enough that every
// algorithm sustains the stream (the paper's real-time replication regime,
// where delay differences come from replay ordering rather than from an
// overloaded backup).
func runComparison(exp Experiment, kinds []htap.Kind) error {
	rate, err := CalibrateRate(exp, 0.35)
	if err != nil {
		return err
	}
	tput, err := RunAll(kinds, exp)
	if err != nil {
		return err
	}
	paced := exp
	paced.PrimaryRate = rate
	vis, err := RunAll(kinds, paced)
	if err != nil {
		return err
	}
	for i := range tput {
		tput[i].Visibility = vis[i].Visibility
		tput[i].PerQuery = vis[i].PerQuery
	}
	printComparison(tput)
	return nil
}

// runFig9 is the same comparison on BusTracker (37% hot entries): the
// hot-table replay time drops far below the total for AETS.
func runFig9(o opts) error {
	txns := o.Txns
	if txns == 0 {
		txns = 40000
		if o.Quick {
			txns = 4000
		}
	}
	bt := workload.NewBusTracker()
	exp := Experiment{
		NewGen:     func() workload.Generator { return workload.NewBusTracker() },
		Rates:      bt.Rates(0),
		Txns:       txns,
		EpochSize:  o.Epoch,
		Workers:    o.Workers,
		Queries:    txns / 20,
		QueryEvery: 200 * time.Microsecond,
		Seed:       o.Seed,
	}
	return runComparison(exp, htap.Kinds)
}

// runFig10 reports the per-query visibility delay of the 22 CH-benCHmark
// queries under AETS, ATR and C5 (each table its own group).
func runFig10(o opts) error {
	txns := o.Txns
	if txns == 0 {
		txns = 40000
		if o.Quick {
			txns = 4000
		}
	}
	exp := Experiment{
		NewGen:     func() workload.Generator { return workload.NewCHBench(20) },
		PerTable:   true,
		Txns:       txns,
		EpochSize:  o.Epoch,
		Workers:    o.Workers,
		Queries:    txns / 10,
		QueryEvery: 100 * time.Microsecond,
		Seed:       o.Seed,
	}
	exp.Rates = htap.CHRates(workload.NewCHBench(20))

	kinds := []htap.Kind{htap.KindAETS, htap.KindATR, htap.KindC5}
	rate, err := CalibrateRate(exp, 0.35)
	if err != nil {
		return err
	}
	exp.PrimaryRate = rate
	results, err := RunAll(kinds, exp)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s", "query")
	for _, r := range results {
		fmt.Printf(" %12s", r.Algorithm+"(us)")
	}
	fmt.Println()
	queries := workload.NewCHBench(20).Queries()
	for _, q := range queries {
		fmt.Printf("%-6s", q.Name)
		for _, r := range results {
			rec := r.PerQuery[q.Name]
			if rec == nil || rec.Count() == 0 {
				fmt.Printf(" %12s", "-")
				continue
			}
			fmt.Printf(" %12.1f", rec.Mean())
		}
		fmt.Println()
	}
	fmt.Printf("%-6s", "mean")
	for _, r := range results {
		fmt.Printf(" %12.1f", r.Visibility.Mean())
	}
	fmt.Println()
	return nil
}

// runTable2 reports the dispatch/replay/commit time breakdown of AETS on
// the three workloads.
func runTable2(o opts) error {
	txns := o.Txns
	if txns == 0 {
		txns = 30000
		if o.Quick {
			txns = 3000
		}
	}
	bt := workload.NewBusTracker()
	rows := []struct {
		name string
		exp  Experiment
	}{
		{"TPC-C", Experiment{
			NewGen: func() workload.Generator { return workload.NewTPCC(20) },
			Rates:  htap.TPCCRates(1000),
		}},
		{"BusTracker", Experiment{
			NewGen: func() workload.Generator { return workload.NewBusTracker() },
			Rates:  bt.Rates(0),
		}},
		{"CH-benCHmark", Experiment{
			NewGen:   func() workload.Generator { return workload.NewCHBench(20) },
			Rates:    htap.CHRates(workload.NewCHBench(20)),
			PerTable: true,
		}},
	}
	fmt.Printf("%-14s %10s %10s %10s\n", "dataset", "dispatch", "replay", "commit")
	for _, row := range rows {
		exp := row.exp
		exp.Txns = txns
		exp.EpochSize = o.Epoch
		exp.Workers = o.Workers
		exp.Seed = o.Seed
		res, err := Run(htap.KindAETS, exp)
		if err != nil {
			return fmt.Errorf("%s: %w", row.name, err)
		}
		d, r, c := res.Breakdown.Shares()
		fmt.Printf("%-14s %9.2f%% %9.2f%% %9.2f%%\n", row.name, d*100, r*100, c*100)
	}
	return nil
}

// runFig12 sweeps the epoch size and reports the mean visibility delay on
// TPC-C.
func runFig12(o opts) error {
	txns := o.Txns
	if txns == 0 {
		txns = 30000
		if o.Quick {
			txns = 4000
		}
	}
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	if o.Quick {
		sizes = []int{64, 512, 2048, 8192}
	}
	base := Experiment{
		NewGen:    func() workload.Generator { return workload.NewTPCC(20) },
		Rates:     htap.TPCCRates(1000),
		Txns:      txns,
		EpochSize: 2048,
		Workers:   o.Workers,
		Seed:      o.Seed,
	}
	rate, err := CalibrateRate(base, 0.7)
	if err != nil {
		return err
	}
	// An epoch assembles for size/rate seconds on the primary before it can
	// ship, so a freshly committed row is on average epoch/(2·rate) old
	// before replay even starts; the visibility wait comes on top. The
	// paper's Fig 12 U-shape is the sum: small epochs pay per-epoch replay
	// overhead, large epochs pay assembly staleness.
	fmt.Printf("%-10s %14s %14s %16s\n", "epoch", "vis-delay(us)", "assembly(us)", "freshness(us)")
	for _, size := range sizes {
		exp := base
		exp.EpochSize = size
		exp.Queries = txns / 20
		exp.QueryEvery = 200 * time.Microsecond
		exp.PrimaryRate = rate
		res, err := Run(htap.KindAETS, exp)
		if err != nil {
			return err
		}
		assembly := float64(size) / (2 * rate) * 1e6
		fmt.Printf("%-10d %14.1f %14.1f %16.1f\n",
			size, res.Visibility.Mean(), assembly, res.Visibility.Mean()+assembly)
	}
	return nil
}

// runFig13 compares the three thread-allocation policies on BusTracker.
func runFig13(o opts) error {
	cfg := AdaptiveConfig{
		Slots: 25, WarmupSlots: 5, TxnsPerSlot: 4096, EpochSize: o.Epoch,
		Workers: o.Workers, QueriesPerSlot: 64, Seed: o.Seed,
	}
	if o.Quick {
		cfg.Slots, cfg.WarmupSlots, cfg.TxnsPerSlot = 5, 1, 512
		cfg.QueriesPerSlot = 16
		cfg.TrainSlots = 100
		cfg.DTGMEpochs = 2
		cfg.DTGMHidden = 8
	}
	strategies := []Strategy{StrategyDTGM, StrategyHA, StrategyNOAC}
	results := make([]*AdaptiveResult, 0, len(strategies))
	for _, s := range strategies {
		r, err := RunAdaptive(s, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		results = append(results, r)
	}
	fmt.Printf("%-8s", "minute")
	for _, r := range results {
		fmt.Printf(" %12s", string(r.Strategy))
	}
	fmt.Println("   (mean visibility delay, us)")
	for slot := 0; slot < len(results[0].PerSlotMeanUS); slot++ {
		fmt.Printf("%-8d", slot+1)
		for _, r := range results {
			fmt.Printf(" %12.1f", r.PerSlotMeanUS[slot])
		}
		fmt.Println()
	}
	fmt.Printf("%-8s", "mean")
	for _, r := range results {
		fmt.Printf(" %12.1f", r.Mean())
	}
	fmt.Println()
	return nil
}
