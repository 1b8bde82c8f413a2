package grouping

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"aets/internal/wal"
)

func TestBuildPerTable(t *testing.T) {
	all := []wal.TableID{1, 2, 3, 4, 5}
	rates := map[wal.TableID]float64{2: 100, 4: 50}
	p := Build(rates, all, Options{PerTable: true})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 5 {
		t.Fatalf("got %d groups, want 5", len(p.Groups))
	}
	var hot []int
	for i, g := range p.Groups {
		if g.Hot {
			hot = append(hot, i)
		}
	}
	if len(hot) != 2 || len(p.Groups)-len(hot) != 3 {
		t.Fatalf("hot=%d cold=%d", len(hot), len(p.Groups)-len(hot))
	}
	// Hot groups sorted by descending rate: table 2 first.
	if p.Groups[hot[0]].Tables[0] != 2 || p.Groups[hot[0]].Rate != 100 {
		t.Fatalf("first hot group: %+v", p.Groups[hot[0]])
	}
	// Every table maps to a group containing it.
	for _, id := range all {
		gi, ok := p.GroupOf(id)
		if !ok {
			t.Fatalf("table %d unmapped", id)
		}
		found := false
		for _, m := range p.Groups[gi].Tables {
			if m == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("table %d maps to group %d that does not contain it", id, gi)
		}
	}
}

func TestBuildClustersSimilarRates(t *testing.T) {
	all := []wal.TableID{1, 2, 3, 4, 5, 6, 7}
	rates := map[wal.TableID]float64{
		1: 1000, 2: 1050, 3: 980, // cluster A
		4: 100, 5: 95, // cluster B
		6: 5, // outlier → singleton
	}
	p := Build(rates, all, Options{Eps: 0.2, MinPts: 2})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g1, _ := p.GroupOf(1)
	g2, _ := p.GroupOf(2)
	g3, _ := p.GroupOf(3)
	if g1 != g2 || g2 != g3 {
		t.Fatalf("rates 1000/1050/980 should cluster: groups %d %d %d", g1, g2, g3)
	}
	g4, _ := p.GroupOf(4)
	g5, _ := p.GroupOf(5)
	if g4 != g5 {
		t.Fatalf("rates 100/95 should cluster: groups %d %d", g4, g5)
	}
	if g1 == g4 {
		t.Fatal("clusters A and B must differ")
	}
	g6, _ := p.GroupOf(6)
	if g6 == g1 || g6 == g4 {
		t.Fatal("outlier must be its own group")
	}
	g7, _ := p.GroupOf(7)
	if p.Groups[g7].Hot {
		t.Fatal("unrated table must be cold")
	}
}

func TestSingleGroup(t *testing.T) {
	p := SingleGroup([]wal.TableID{3, 1, 2})
	if len(p.Groups) != 1 || !p.Groups[0].Hot {
		t.Fatalf("plan: %+v", p.Groups)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []wal.TableID{1, 2, 3} {
		if gi, ok := p.GroupOf(id); !ok || gi != 0 {
			t.Fatalf("table %d → group %d, %v", id, gi, ok)
		}
	}
}

func TestBuildCoversAllTablesQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		all := make([]wal.TableID, n)
		rates := make(map[wal.TableID]float64)
		for i := range all {
			all[i] = wal.TableID(i + 1)
			if r.Intn(3) == 0 {
				rates[all[i]] = r.Float64() * 1e4
			}
		}
		p := Build(rates, all, Options{})
		if p.Validate() != nil {
			return false
		}
		covered := 0
		for _, g := range p.Groups {
			covered += len(g.Tables)
		}
		if covered != n {
			return false
		}
		// Cold groups are singletons; hot groups carry only rated tables.
		for _, g := range p.Groups {
			if !g.Hot && len(g.Tables) != 1 {
				return false
			}
			if g.Hot {
				for _, id := range g.Tables {
					if rates[id] <= 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDBSCAN1D(t *testing.T) {
	pts := []float64{1000, 1020, 990, 100, 102, 7}
	labels := DBSCAN1D(pts, 0.1, 2)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("big cluster split: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Fatalf("small cluster split: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Fatalf("clusters merged: %v", labels)
	}
	if labels[5] != Noise {
		t.Fatalf("outlier not noise: %v", labels)
	}
	// Hottest cluster gets label 0.
	if labels[0] != 0 {
		t.Fatalf("hottest cluster label = %d, want 0", labels[0])
	}
}

func TestDBSCAN1DEmptyAndSingleton(t *testing.T) {
	if got := DBSCAN1D(nil, 0.1, 2); len(got) != 0 {
		t.Fatal("empty input must yield empty labels")
	}
	if got := DBSCAN1D([]float64{5}, 0.1, 2); got[0] != Noise {
		t.Fatal("single point below MinPts must be noise")
	}
	if got := DBSCAN1D([]float64{5}, 0.1, 1); got[0] != 0 {
		t.Fatal("single point with MinPts=1 must form a cluster")
	}
}

// Validate checks that every table belongs to exactly one group and group
// rates are consistent with membership.
func (p *Plan) Validate() error {
	seen := make(map[wal.TableID]int)
	for gi, g := range p.Groups {
		for _, t := range g.Tables {
			if prev, dup := seen[t]; dup {
				return fmt.Errorf("grouping: table %d in both group %d and %d", t, prev, gi)
			}
			seen[t] = gi
			if got := p.byID[t]; got != gi {
				return fmt.Errorf("grouping: index maps table %d to group %d, membership says %d", t, got, gi)
			}
		}
	}
	if len(seen) != len(p.byID) {
		return fmt.Errorf("grouping: index has %d tables, groups carry %d", len(p.byID), len(seen))
	}
	return nil
}
