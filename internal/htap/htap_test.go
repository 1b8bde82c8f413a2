package htap

import (
	"testing"
	"time"

	"aets/internal/memtable"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/workload"
)

func smallTPCC(queries int) Experiment {
	return Experiment{
		NewGen:     func() workload.Generator { return workload.NewTPCC(2) },
		Rates:      TPCCRates(1000),
		Txns:       1200,
		EpochSize:  256,
		Workers:    4,
		Queries:    queries,
		QueryEvery: 100 * time.Microsecond,
		Seed:       11,
	}
}

func TestRunAllKinds(t *testing.T) {
	for _, k := range Kinds {
		res, err := Run(k, smallTPCC(32))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Throughput.TxnsPerSec() <= 0 {
			t.Fatalf("%s: zero throughput", k)
		}
		if res.HotReplayTime <= 0 || res.ColdReplayTime <= 0 {
			t.Fatalf("%s: replay times %v %v", k, res.HotReplayTime, res.ColdReplayTime)
		}
		if res.HotReplayTime > res.ColdReplayTime {
			t.Fatalf("%s: hot stage time exceeds total (%v > %v)", k, res.HotReplayTime, res.ColdReplayTime)
		}
		if res.Visibility.Count() == 0 {
			t.Fatalf("%s: no visibility samples", k)
		}
	}
}

func TestNewReplayerUnknownKind(t *testing.T) {
	exp := smallTPCC(0)
	if _, err := NewReplayer("nope", memtable.New(), exp.Plan(), Options{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestCHRatesCoverWrittenHotTables(t *testing.T) {
	gen := workload.NewCHBench(1)
	rates := CHRates(gen)
	if len(rates) == 0 {
		t.Fatal("no CH rates")
	}
	if _, ok := rates[workload.TPCCOrderLine]; !ok {
		t.Fatal("order_line must be rated (most CH queries touch it)")
	}
	if _, ok := rates[workload.TPCCHistory]; ok {
		t.Fatal("history is never read by CH queries")
	}
}

func TestAETSHotStageShareTracksEntryShare(t *testing.T) {
	// With the TPC-C mix, hot tables carry ~91% of entries; the hot stage
	// must take the dominant share of AETS's replay time.
	res, err := Run(KindAETS, smallTPCC(0))
	if err != nil {
		t.Fatal(err)
	}
	share := float64(res.HotReplayTime) / float64(res.ColdReplayTime)
	if share < 0.5 || share > 1.0 {
		t.Fatalf("hot stage share %.2f, want within (0.5, 1.0] for a 91%%-hot workload", share)
	}
}

func TestRunAdaptiveStrategies(t *testing.T) {
	cfg := AdaptiveConfig{
		Slots: 2, WarmupSlots: 1, TxnsPerSlot: 512, EpochSize: 256,
		Workers: 4, QueriesPerSlot: 8, TrainSlots: 80,
		DTGMHidden: 4, DTGMEpochs: 1, Seed: 3,
	}
	for _, s := range []Strategy{StrategyDTGM, StrategyHA, StrategyNOAC} {
		res, err := RunAdaptive(s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(res.PerSlotMeanUS) != cfg.Slots {
			t.Fatalf("%s: %d slots, want %d", s, len(res.PerSlotMeanUS), cfg.Slots)
		}
	}
	if _, err := RunAdaptive("bogus", cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestReplayEquivalenceAcrossKinds(t *testing.T) {
	// All four replayers over the same encoded stream must produce
	// identical Memtables.
	exp := smallTPCC(0)
	ref := memtable.New()
	var refSet bool
	for _, k := range Kinds {
		mt := memtable.New()
		r, err := NewReplayer(k, mt, exp.Plan(), Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		encs := primary.New(exp.NewGen(), exp.Seed).GenerateEncoded(exp.Txns, exp.EpochSize)
		r.Start()
		for i := range encs {
			r.Feed(&encs[i])
		}
		r.Drain()
		r.Stop()
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !refSet {
			ref, refSet = mt, true
			continue
		}
		if err := reference.Equal(ref, mt, workload.TableIDs(exp.NewGen().Tables())); err != nil {
			t.Fatalf("%s differs from %s: %v", k, Kinds[0], err)
		}
	}
}
