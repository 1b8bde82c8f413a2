package htap

import (
	"testing"

	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/primary"
	"aets/internal/reference"
	"aets/internal/workload"
)

// tpccPlan returns the paper's TPC-C grouping for gen.
func tpccPlan(gen workload.Generator) *grouping.Plan {
	return grouping.Build(TPCCRates(1000), workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.05, MinPts: 2})
}

func TestNewReplayerUnknownKind(t *testing.T) {
	plan := tpccPlan(workload.NewTPCC(2))
	if _, err := NewReplayer("nope", memtable.New(), plan, Options{}); err == nil {
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

func TestReplayEquivalenceAcrossKinds(t *testing.T) {
	// All four replayers over the same encoded stream must produce
	// identical Memtables.
	newGen := func() workload.Generator { return workload.NewTPCC(2) }
	plan := tpccPlan(newGen())
	ref := memtable.New()
	var refSet bool
	for _, k := range Kinds {
		mt := memtable.New()
		r, err := NewReplayer(k, mt, plan, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		encs := primary.New(newGen(), 11).GenerateEncoded(1200, 256)
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
		if err := reference.Equal(ref, mt, workload.TableIDs(newGen().Tables())); err != nil {
			t.Fatalf("%s differs from %s: %v", k, Kinds[0], err)
		}
	}
}
