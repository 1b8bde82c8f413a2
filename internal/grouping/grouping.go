// Package grouping builds the table groups that AETS replays and commits
// independently (paper §III-C component ③). Tables accessed by real-time
// OLAP queries (non-zero predicted access rate) are *hot*; hot tables with
// similar rates are clustered into one group with DBSCAN, while every cold
// table gets its own group so its replay cannot delay any hot group.
package grouping

import (
	"sort"

	"aets/internal/wal"
)

// Group is one table group: the unit of dispatch, parallel replay, commit
// ordering and visibility.
type Group struct {
	ID     int
	Tables []wal.TableID
	Hot    bool
	// Rate is the group's predicted table access rate: the sum of the
	// member tables' rates (queries per slot touching the group).
	Rate float64
}

// Plan maps every table to its group for one epoch.
type Plan struct {
	Groups []Group
	byID   map[wal.TableID]int
	// dense is a direct-indexed fast path for GroupOf: dispatch performs
	// one lookup per log entry, and a map probe there is the difference
	// between a ~1% and a ~10% dispatch share in the Table II breakdown.
	// dense[t] is groupID+1, 0 meaning absent.
	dense []int32
}

// maxDenseTableID bounds the direct-index table. Benchmarks use small IDs;
// plans over sparser ID spaces fall back to the map.
const maxDenseTableID = 4096

// GroupOf returns the group index for a table; ok is false when the table
// is not covered by the plan.
func (p *Plan) GroupOf(t wal.TableID) (int, bool) {
	if int(t) < len(p.dense) {
		g := p.dense[t]
		return int(g) - 1, g != 0
	}
	g, ok := p.byID[t]
	return g, ok
}

// buildDense populates the direct-index lookup after byID is final.
func (p *Plan) buildDense() {
	max := wal.TableID(0)
	for t := range p.byID {
		if t > max {
			max = t
		}
	}
	if max >= maxDenseTableID {
		return
	}
	p.dense = make([]int32, max+1)
	for t, g := range p.byID {
		p.dense[t] = int32(g) + 1
	}
}

// Options controls plan construction.
type Options struct {
	// Eps is the DBSCAN neighbourhood radius in *relative* rate space: two
	// hot tables are neighbours when |r1-r2| ≤ Eps·max(r1,r2). 0 means 0.25.
	Eps float64
	// MinPts is DBSCAN's core-point threshold. 0 means 2.
	MinPts int
	// PerTable forces one group per hot table, bypassing DBSCAN — the mode
	// the paper uses for TPC-C and CH-benCHmark where the table count is
	// small.
	PerTable bool
}

// Build constructs a Plan from predicted per-table access rates. Tables
// with rate > 0 are hot; all tables in `all` that are not rated hot become
// singleton cold groups. Group IDs are dense and deterministic: hot groups
// first in descending rate, then cold groups in ascending table ID.
func Build(rates map[wal.TableID]float64, all []wal.TableID, opts Options) *Plan {
	if opts.Eps == 0 {
		opts.Eps = 0.25
	}
	if opts.MinPts == 0 {
		opts.MinPts = 2
	}

	hotIDs := make([]wal.TableID, 0, len(rates))
	for t, r := range rates {
		if r > 0 {
			hotIDs = append(hotIDs, t)
		}
	}
	sort.Slice(hotIDs, func(i, j int) bool {
		if rates[hotIDs[i]] != rates[hotIDs[j]] {
			return rates[hotIDs[i]] > rates[hotIDs[j]]
		}
		return hotIDs[i] < hotIDs[j]
	})

	p := &Plan{byID: make(map[wal.TableID]int)}
	addGroup := func(tables []wal.TableID, hot bool) {
		g := Group{ID: len(p.Groups), Tables: tables, Hot: hot}
		for _, t := range tables {
			g.Rate += rates[t]
			p.byID[t] = g.ID
		}
		p.Groups = append(p.Groups, g)
	}

	if opts.PerTable || len(hotIDs) <= opts.MinPts {
		for _, t := range hotIDs {
			addGroup([]wal.TableID{t}, true)
		}
	} else {
		pts := make([]float64, len(hotIDs))
		for i, t := range hotIDs {
			pts[i] = rates[t]
		}
		labels := DBSCAN1D(pts, opts.Eps, opts.MinPts)
		clusters := make(map[int][]wal.TableID)
		var order []int
		for i, lbl := range labels {
			if lbl == Noise {
				// Noise points become singleton hot groups.
				addGroup([]wal.TableID{hotIDs[i]}, true)
				continue
			}
			if _, ok := clusters[lbl]; !ok {
				order = append(order, lbl)
			}
			clusters[lbl] = append(clusters[lbl], hotIDs[i])
		}
		for _, lbl := range order {
			addGroup(clusters[lbl], true)
		}
	}

	cold := make([]wal.TableID, 0, len(all))
	for _, t := range all {
		if _, isHot := p.byID[t]; !isHot {
			cold = append(cold, t)
		}
	}
	sort.Slice(cold, func(i, j int) bool { return cold[i] < cold[j] })
	for _, t := range cold {
		addGroup([]wal.TableID{t}, false)
	}
	p.buildDense()
	return p
}

// SingleGroup returns a plan with every table in one hot group — the
// configuration of the ungrouped TPLR baseline.
func SingleGroup(all []wal.TableID) *Plan {
	p := &Plan{byID: make(map[wal.TableID]int, len(all))}
	tables := append([]wal.TableID(nil), all...)
	sort.Slice(tables, func(i, j int) bool { return tables[i] < tables[j] })
	for _, t := range tables {
		p.byID[t] = 0
	}
	p.Groups = []Group{{ID: 0, Tables: tables, Hot: true}}
	p.buildDense()
	return p
}
