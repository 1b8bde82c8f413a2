package memtable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortCase is one SortDedupePairs input: the keys, in input order.
type sortCase struct {
	name string
	keys []uint64
}

func sortCases() []sortCase {
	rng := rand.New(rand.NewSource(5))
	random := func(n int, mod uint64) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = rng.Uint64() % mod
		}
		return ks
	}
	var cases []sortCase
	for _, n := range []int{0, 1, 63, 64, 10000} {
		cases = append(cases, sortCase{fmt.Sprintf("random/n=%d", n), random(n, 1<<40)})
	}
	for _, n := range []int{63, 64, 10000} {
		// Few distinct keys: most of the input is duplicates.
		cases = append(cases, sortCase{fmt.Sprintf("duplicates/n=%d", n), random(n, 16)})
	}
	for _, n := range []int{63, 64, 10000} {
		ks := random(n, ^uint64(0))
		ks[0], ks[n/2], ks[n-1] = ^uint64(0), 0, ^uint64(0)
		cases = append(cases, sortCase{fmt.Sprintf("extremes/n=%d", n), ks})
	}
	for _, n := range []int{63, 64, 10000} {
		// The warehouse·K + d shape: the low bytes never vary, so the radix
		// passes over them take the constant-digit skip.
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = uint64(rng.Intn(64))<<24 + 7
		}
		cases = append(cases, sortCase{fmt.Sprintf("clustered/n=%d", n), ks})
	}
	for _, n := range []int{63, 64, 10000} {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = uint64(i) * 3
		}
		cases = append(cases, sortCase{fmt.Sprintf("sorted/n=%d", n), ks})
	}
	return cases
}

// TestSortDedupePairs checks the package's one key sort against sort.Slice
// plus a dedupe: the surviving keys ascend strictly, every record still
// rides with its own key, and the freed record tail is nil.
func TestSortDedupePairs(t *testing.T) {
	for _, c := range sortCases() {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.keys)
			byKey := make(map[uint64]*Record, n)
			recs := make([]*Record, n)
			keys := append([]uint64(nil), c.keys...)
			for i, k := range keys {
				if byKey[k] == nil {
					byKey[k] = &Record{Key: k}
				}
				recs[i] = byKey[k]
			}
			want := append([]uint64(nil), c.keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			uniq := want[:0]
			for i, k := range want {
				if i == 0 || want[i-1] != k {
					uniq = append(uniq, k)
				}
			}

			tmpR, tmpK := make([]*Record, n), make([]uint64, n)
			outR, outK := SortDedupePairs(recs, keys, tmpR, tmpK)
			if len(outK) != len(uniq) || len(outR) != len(uniq) {
				t.Fatalf("got %d keys and %d records, want %d", len(outK), len(outR), len(uniq))
			}
			for i, k := range uniq {
				if outK[i] != k {
					t.Fatalf("key %d: got %d want %d", i, outK[i], k)
				}
				if outR[i] != byKey[k] {
					t.Fatalf("key %d (%d): record for key %d", i, k, outR[i].Key)
				}
			}
			for j := len(outR); j < n; j++ {
				if recs[j] != nil {
					t.Fatalf("freed tail slot %d still holds a record", j)
				}
			}
		})
	}
}

// TestSortDedupePairsZeroAlloc pins the sort at 0 allocs/op on every case
// shape, both below and above the radix cutoff.
func TestSortDedupePairsZeroAlloc(t *testing.T) {
	for _, c := range sortCases() {
		n := len(c.keys)
		keys, recs := make([]uint64, n), make([]*Record, n)
		tmpR, tmpK := make([]*Record, n), make([]uint64, n)
		rec := &Record{}
		allocs := testing.AllocsPerRun(10, func() {
			copy(keys, c.keys)
			for i := range recs {
				recs[i] = rec
			}
			SortDedupePairs(recs, keys, tmpR, tmpK)
		})
		if allocs > 0 {
			t.Fatalf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}
