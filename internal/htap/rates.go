package htap

import (
	"aets/internal/wal"
	"aets/internal/workload"
)

// TPCCRates returns the paper's TPC-C access-rate assignment (§VI-A3): the
// order_line group is accessed twice as often as the
// district/stock/customer/order group.
func TPCCRates(base float64) map[wal.TableID]float64 {
	return map[wal.TableID]float64{
		workload.TPCCDistrict:  base,
		workload.TPCCStock:     base,
		workload.TPCCCustomer:  base,
		workload.TPCCOrder:     base,
		workload.TPCCOrderLine: 2 * base,
	}
}

// CHRates returns per-table rates proportional to how many of the 22 CH
// queries touch each written table; with PerTable grouping this reproduces
// the paper's "each table is assigned to its own group" setup.
func CHRates(gen workload.Generator) map[wal.TableID]float64 {
	counts := make(map[wal.TableID]int)
	written := make(map[wal.TableID]bool)
	for _, t := range gen.Tables() {
		written[t.ID] = true
	}
	for _, q := range gen.Queries() {
		for _, t := range q.Tables {
			if written[t] {
				counts[t]++
			}
		}
	}
	rates := make(map[wal.TableID]float64, len(counts))
	for t, c := range counts {
		rates[t] = float64(c) * 100
	}
	return rates
}
