package alloc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestAllocateSumsToTotalQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 1 + r.Intn(64)
		n := 1 + r.Intn(20)
		groups := make([]GroupLoad, n)
		active := 0
		for i := range groups {
			if r.Intn(4) != 0 {
				groups[i] = GroupLoad{Unreplayed: 1 + r.Intn(1<<20), Rate: r.Float64() * 1e5}
				active++
			}
		}
		got := Allocate(total, groups, LogUrgency)
		s := sum(got)
		want := total
		if active == 0 {
			want = 0
		} else if total > active {
			want = total
		} else {
			want = total // one each for the heaviest `total` groups
		}
		if s != want {
			t.Logf("sum=%d want=%d total=%d active=%d", s, want, total, active)
			return false
		}
		for i, g := range groups {
			if g.Unreplayed <= 0 && got[i] != 0 {
				return false // empty groups get nothing
			}
			if g.Unreplayed > 0 && total >= active && got[i] < 1 {
				return false // non-empty groups get at least one when budget allows
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateProportionalToWeight(t *testing.T) {
	groups := []GroupLoad{
		{Unreplayed: 1 << 20, Rate: 10},      // λ=1
		{Unreplayed: 1 << 20, Rate: 1000000}, // λ=6
	}
	got := Allocate(14, groups, LogUrgency)
	// Weights 1:6 over 12 spare workers (after 1 each) → 1+1=2 (±1) vs 1+11=12.
	if got[0]+got[1] != 14 {
		t.Fatalf("sum = %d", got[0]+got[1])
	}
	if got[1] <= got[0]*3 {
		t.Fatalf("allocation not urgency-weighted: %v", got)
	}
}

func TestAllocateMonotoneInLoad(t *testing.T) {
	groups := []GroupLoad{
		{Unreplayed: 100, Rate: 100},
		{Unreplayed: 1000, Rate: 100},
		{Unreplayed: 10000, Rate: 100},
	}
	got := Allocate(12, groups, LogUrgency)
	if !(got[0] <= got[1] && got[1] <= got[2]) {
		t.Fatalf("allocation not monotone in log size: %v", got)
	}
}

func TestAllocateScarceBudget(t *testing.T) {
	groups := []GroupLoad{
		{Unreplayed: 10, Rate: 1},
		{Unreplayed: 1000000, Rate: 100000},
		{Unreplayed: 500, Rate: 10},
	}
	got := Allocate(1, groups, LogUrgency)
	if sum(got) != 1 || got[1] != 1 {
		t.Fatalf("single worker must go to the heaviest group: %v", got)
	}
	got = Allocate(2, groups, LogUrgency)
	if sum(got) != 2 || got[1] != 1 {
		t.Fatalf("two workers must cover the two heaviest groups: %v", got)
	}
}

func TestAllocateZeroCases(t *testing.T) {
	if got := Allocate(0, []GroupLoad{{Unreplayed: 1}}, nil); sum(got) != 0 {
		t.Fatal("zero budget must allocate nothing")
	}
	if got := Allocate(8, nil, nil); len(got) != 0 {
		t.Fatal("no groups must yield empty result")
	}
	if got := Allocate(8, []GroupLoad{{}, {}}, nil); sum(got) != 0 {
		t.Fatal("all-empty groups must allocate nothing")
	}
}

func TestUrgencyFunctions(t *testing.T) {
	if LogUrgency(1000) != 3 {
		t.Fatalf("LogUrgency(1000) = %v, want 3 (the paper's log10 example)", LogUrgency(1000))
	}
	if LogUrgency(5) != 1 {
		t.Fatalf("LogUrgency(5) = %v, want clamp to 1", LogUrgency(5))
	}
	if NoURgency(12345) != 1 {
		t.Fatal("NoURgency must ignore rate")
	}
	if math.IsNaN(LogUrgency(0)) {
		t.Fatal("LogUrgency(0) must be finite")
	}
}

func TestAllocateDefaultsUrgency(t *testing.T) {
	groups := []GroupLoad{{Unreplayed: 100, Rate: 1000}}
	if got := Allocate(4, groups, nil); got[0] != 4 {
		t.Fatalf("nil urgency: %v", got)
	}
}
