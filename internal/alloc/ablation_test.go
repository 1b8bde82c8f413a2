package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// linearUrgency uses λ = r directly — the numerically unstable alternative
// the paper argues against (a rate of 1000 would grab 1000× the threads).
func linearUrgency(rate float64) float64 { return max(rate, 1) }

// TestUrgencyOrderingProperty: across random loads, a group's allocation
// never decreases when its rate increases (everything else fixed) — for
// the log urgency the paper argues for and the linear variant it rejects.
func TestUrgencyOrderingProperty(t *testing.T) {
	for _, u := range []UrgencyFunc{LogUrgency, linearUrgency} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			n := 2 + r.Intn(8)
			groups := make([]GroupLoad, n)
			for i := range groups {
				groups[i] = GroupLoad{Unreplayed: 1 + r.Intn(1<<16), Rate: r.Float64() * 1e4}
			}
			total := n + r.Intn(32)
			before := Allocate(total, groups, u)

			i := r.Intn(n)
			groups[i].Rate *= 10
			after := Allocate(total, groups, u)
			return after[i] >= before[i]
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinearUrgencyStarvation demonstrates the numerical-stability problem
// the paper's log choice avoids: with λ = r, one very hot group starves
// the rest down to their single reserved worker, while λ = log r keeps the
// spread bounded.
func TestLinearUrgencyStarvation(t *testing.T) {
	groups := []GroupLoad{
		{Unreplayed: 1 << 20, Rate: 1e6},
		{Unreplayed: 1 << 20, Rate: 10},
		{Unreplayed: 1 << 20, Rate: 10},
	}
	linear := Allocate(24, groups, linearUrgency)
	logd := Allocate(24, groups, LogUrgency)

	if linear[1] != 1 || linear[2] != 1 {
		t.Fatalf("linear urgency should starve cool groups to their reserved worker: %v", linear)
	}
	if logd[1] < 3 {
		t.Fatalf("log urgency should keep cool groups working: %v", logd)
	}
	if logd[0] <= logd[1] {
		t.Fatalf("log urgency must still favour the hot group: %v", logd)
	}
}
