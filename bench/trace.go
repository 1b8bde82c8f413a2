package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval of one request. Spans of a request share
// ID (the epoch sequence, or the probe/query ordinal); Parent names the
// span that caused this one ("" for the request's root). Times are
// nanoseconds since the run's t0.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, for the spans of ONE request, each span's self
// time by name: its duration minus the part of its interval covered by
// its direct children (children are clipped to the parent and overlaps
// between siblings are counted once).
func selfTimes(spans []span) map[string]int64 {
	out := make(map[string]int64, len(spans))
	for _, p := range spans {
		var kids [][2]int64
		for _, c := range spans {
			if c.Parent != p.Name || c.Name == p.Name {
				continue
			}
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			if k[1] <= edge {
				continue
			}
			covered += k[1] - max(k[0], edge)
			edge = k[1]
		}
		out[p.Name] += p.dur() - covered
	}
	return out
}

// request is the spans of one epoch, probe or query, root first.
type request []span

// budget is the per-layer decomposition of a request kind's median
// latency: the mean self time per span name over the requests whose
// root duration ranks in the 40th–60th percentile band. Means add, so
// the rows sum exactly to the band's mean latency, which sits at the
// median; a sum of per-span medians would not.
type budget struct {
	Root    string             `json:"root"`
	N       int                `json:"band_requests"`
	SelfMS  map[string]float64 `json:"self_ms"`
	SumMS   float64            `json:"sum_ms"`
	P50MS   float64            `json:"p50_ms"`
	OffFrac float64            `json:"sum_vs_p50_frac"`
}

func makeBudget(reqs []request) budget {
	if len(reqs) == 0 {
		return budget{}
	}
	byDur := append([]request(nil), reqs...)
	sort.Slice(byDur, func(i, j int) bool { return byDur[i][0].dur() < byDur[j][0].dur() })
	durs := make([]float64, len(byDur))
	for i, r := range byDur {
		durs[i] = float64(r[0].dur())
	}
	top := float64(len(byDur) - 1)
	lo, hi := int(math.Floor(0.40*top)), int(math.Ceil(0.60*top))
	b := budget{Root: reqs[0][0].Name, SelfMS: map[string]float64{}, P50MS: quantile(durs, 0.5) / 1e6}
	for _, r := range byDur[lo : hi+1] {
		b.N++
		for name, ns := range selfTimes(r) {
			b.SelfMS[name] += float64(ns) / 1e6
		}
	}
	for name := range b.SelfMS {
		b.SelfMS[name] /= float64(b.N)
		b.SumMS += b.SelfMS[name]
	}
	if b.P50MS > 0 {
		b.OffFrac = b.SumMS/b.P50MS - 1
	}
	return b
}

// traceFile is what a traced run leaves in <out>/trace_<workload>.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Budgets  []budget `json:"budgets"`
	Spans    []span   `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+tf.Workload+".json"), buf, 0o644)
}
