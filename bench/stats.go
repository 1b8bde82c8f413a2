package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// sortedCopy returns vs sorted ascending without touching vs.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func median(vs []float64) float64 { return quantile(sortedCopy(vs), 0.5) }

// tailLadder is the percentiles a tail may be reported at, ascending.
var tailLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten of n samples beyond it: a p99 over 600 samples would
// rest on six points, so it is reported as a p95 instead. With fewer
// than twenty samples nothing but the median qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder[1:] {
		if float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is 9.999…98 in floating point
			best = p
		}
	}
	return best
}

// summary is a timing reported the way the README defines it: median,
// the tail percentile the sample count supports, and that count.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // which percentile Tail is, e.g. 99
	Max     float64
}

func summarize(vs []float64) summary {
	s := sortedCopy(vs)
	if len(s) == 0 {
		return summary{}
	}
	p := tailPercentile(len(s))
	return summary{N: len(s), P50: quantile(s, 0.5), Tail: quantile(s, p), TailPct: p * 100, Max: s[len(s)-1]}
}

// quartiles returns (q1, median, q3) the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is what
// the acceptance driver computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
