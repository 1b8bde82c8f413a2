package main

import (
	"fmt"

	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/primary"
	"aets/internal/sim"
	"aets/internal/workload"
)

// runFig11 reproduces the multi-core scalability comparison on the
// calibrated discrete-event simulator: normalised replay throughput
// (divided by ATR's single-thread throughput) for 1–64 threads.
func runFig11(o opts) error {
	txns := o.Txns
	if txns == 0 {
		txns = 30000
		if o.Quick {
			txns = 4000
		}
	}
	gen := workload.NewTPCC(20)
	p := primary.New(gen, o.Seed)
	raw := p.GenerateTxns(txns)
	plan := grouping.Build(htap.TPCCRates(1000), workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.05, MinPts: 2})
	tr := sim.BuildTrace(raw, plan, o.Epoch)

	// The fixed default constants keep the curve shape stable; Calibrate
	// re-measures machine speed but is noisy on loaded single-core hosts.
	costs := sim.DefaultCosts()
	meas := sim.Calibrate()
	fmt.Printf("model costs (ns/op): meta=%.0f full=%.0f lookup=%.0f install=%.0f  (this host measured: %.0f/%.0f/%.0f/%.0f)\n",
		costs.ParseMeta, costs.ParseFull, costs.Lookup, costs.Install,
		meas.ParseMeta, meas.ParseFull, meas.Lookup, meas.Install)

	base := sim.SimulateATR(tr, 1, costs).TxnsPerSec()
	if base == 0 {
		base = 1
	}
	threads := []int{1, 2, 4, 8, 16, 32, 64}
	fmt.Printf("%-8s %10s %10s %10s %10s   (normalised by ATR@1)\n",
		"threads", "AETS", "ATR", "C5", "TPLR")
	for _, n := range threads {
		fmt.Printf("%-8d %10.2f %10.2f %10.2f %10.2f\n", n,
			sim.SimulateAETS(tr, n, costs).TxnsPerSec()/base,
			sim.SimulateATR(tr, n, costs).TxnsPerSec()/base,
			sim.SimulateC5(tr, n, costs).TxnsPerSec()/base,
			sim.SimulateTPLR(tr, n, costs).TxnsPerSec()/base)
	}
	return nil
}
