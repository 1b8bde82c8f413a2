package dispatch

import (
	"testing"

	"aets/internal/grouping"
	"aets/internal/primary"
	"aets/internal/wal"
	"aets/internal/workload"
)

func BenchmarkDispatchTPCC(b *testing.B) {
	gen := workload.NewTPCC(4)
	p := primary.New(gen, 1)
	eps := p.GenerateEncoded(2048, 2048)
	rates := map[wal.TableID]float64{
		workload.TPCCDistrict: 1000, workload.TPCCStock: 1000,
		workload.TPCCCustomer: 1000, workload.TPCCOrder: 1000,
		workload.TPCCOrderLine: 2000,
	}
	plan := grouping.Build(rates, workload.TableIDs(gen.Tables()), grouping.Options{})
	enc := &eps[0]
	b.SetBytes(int64(len(enc.Buf)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewBuffers().Dispatch(enc, plan); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink *Result

func BenchmarkDispatchManyGroups(b *testing.B) {
	gen := workload.NewBusTracker()
	p := primary.New(gen, 1)
	eps := p.GenerateEncoded(2048, 2048)
	plan := grouping.Build(gen.Rates(0), workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.3, MinPts: 2})
	enc := &eps[0]
	b.SetBytes(int64(len(enc.Buf)))
	b.ReportAllocs()
	for b.Loop() {
		res, err := NewBuffers().Dispatch(enc, plan)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}
