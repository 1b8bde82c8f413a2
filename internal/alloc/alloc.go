// Package alloc implements AETS's adaptive fine-grained thread resource
// allocation (paper §IV-B). Given a fixed budget T of replay workers, the
// number t_gi of workers per table group satisfies
//
//	λ_gi · n_gi / t_gi = const across groups,  Σ t_gi = T,
//
// where n_gi is the group's un-replayed log size and λ_gi the urgency factor
// derived from the group's predicted table access rate. Solving the system
// gives t_gi ∝ λ_gi·n_gi; the remainder of the package turns that fractional
// solution into integer worker counts.
package alloc

import "math"

// UrgencyFunc maps a table group's access rate to its urgency factor λ.
type UrgencyFunc func(rate float64) float64

// LogUrgency is the paper's choice: λ = log10(r), clamped to ≥1 so groups
// with tiny rates still progress and the solution stays numerically stable.
func LogUrgency(rate float64) float64 {
	if rate <= 10 {
		return 1
	}
	return math.Log10(rate)
}

// NoURgency ignores the access rate entirely (λ = 1): the AETS-NOAC
// configuration of Fig 13, which allocates threads by log size only.
func NoURgency(float64) float64 { return 1 }

// GroupLoad describes one table group's demand for replay workers.
type GroupLoad struct {
	// Unreplayed is n_gi: bytes of received but un-replayed log entries.
	Unreplayed int
	// Rate is the predicted table access rate of the group.
	Rate float64
}

// Allocate distributes total workers over the groups. Every group with
// un-replayed work receives at least one worker; groups with no work receive
// zero. The fractional shares t_i ∝ λ(rate_i)·n_i are integerised with the
// largest-remainder method, which keeps the result monotone in λ·n and
// exactly sums to total (or to the number of non-empty groups when total is
// smaller than that).
func Allocate(total int, groups []GroupLoad, urgency UrgencyFunc) []int {
	if urgency == nil {
		urgency = LogUrgency
	}
	out := make([]int, len(groups))
	if total <= 0 {
		return out
	}

	weights := make([]float64, len(groups))
	var sum float64
	active := 0
	for i, g := range groups {
		if g.Unreplayed <= 0 {
			continue
		}
		w := urgency(g.Rate) * float64(g.Unreplayed)
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			w = 1
		}
		weights[i] = w
		sum += w
		active++
	}
	if active == 0 {
		return out
	}
	if total <= active {
		// Not enough workers for one each: give one to the heaviest groups.
		order := make([]iwPair, 0, active)
		for i, w := range weights {
			if w > 0 {
				order = append(order, iwPair{i, w})
			}
		}
		sortByWeight(order)
		for k := 0; k < total && k < len(order); k++ {
			out[order[k].i] = 1
		}
		return out
	}

	// Reserve one worker per active group, distribute the rest by weight
	// with largest remainders.
	rest := total - active
	type share struct {
		i    int
		frac float64
	}
	shares := make([]share, 0, active)
	assigned := 0
	for i, w := range weights {
		if w == 0 {
			continue
		}
		exact := float64(rest) * w / sum
		whole := int(exact)
		out[i] = 1 + whole
		assigned += whole
		shares = append(shares, share{i, exact - float64(whole)})
	}
	for left := rest - assigned; left > 0; left-- {
		best := -1
		for k := range shares {
			if best == -1 || shares[k].frac > shares[best].frac {
				best = k
			}
		}
		out[shares[best].i]++
		shares[best].frac = -1
	}
	return out
}

type iwPair = struct {
	i int
	w float64
}

func sortByWeight(s []iwPair) {
	// Insertion sort: group counts are small (tens), and this avoids pulling
	// in sort for a hot path invoked once per epoch.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].w > s[j-1].w; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
