package colstore

import (
	"encoding/binary"
	"testing"

	"aets/internal/wal"
)

func le64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// buildTestSegment exercises all three encodings: col 1 all-8-byte
// (fixed8), col 2 two distinct values over many rows (dict), col 3
// variable-length strings (plain) with gaps in presence.
func buildTestSegment(tb testing.TB) *Segment {
	tb.Helper()
	b := NewBuilder(3, 8)
	vals := []string{"aa", "bb"}
	for i := 0; i < 8; i++ {
		key := uint64(i * 10)
		cols := []wal.Column{{ID: 1, Value: le64(uint64(i + 100))}}
		cols = append(cols, wal.Column{ID: 2, Value: []byte(vals[i&1])})
		if i%3 == 0 {
			cols = append(cols, wal.Column{ID: 3, Value: []byte{byte(i), byte(i), byte(i)}[:i%4]})
		}
		b.Add(key, int64(1000+i), uint64(i+1), i == 5, cols)
	}
	return b.Build()
}

func TestSegmentBuildStats(t *testing.T) {
	s := buildTestSegment(t)
	if s.Len() != 8 || s.Live != 7 {
		t.Fatalf("len/live = %d/%d, want 8/7", s.Len(), s.Live)
	}
	if s.MinKey != 0 || s.MaxKey != 70 || s.MinTS != 1000 || s.MaxTS != 1007 {
		t.Fatalf("footer = %d..%d ts %d..%d", s.MinKey, s.MaxKey, s.MinTS, s.MaxTS)
	}
	if s.MaxLiveTS != 1007 {
		t.Fatalf("MaxLiveTS = %d, want 1007", s.MaxLiveTS)
	}
	// Sum of col 1 over live rows: Σ(100..107) minus the tombstone (105).
	want := int64(0)
	for i := 100; i < 108; i++ {
		if i != 105 {
			want += int64(i)
		}
	}
	if got := s.Sum(1); got != want {
		t.Fatalf("Sum(1) = %d, want %d", got, want)
	}
	if got := s.Sum(99); got != 0 {
		t.Fatalf("Sum of absent column = %d, want 0", got)
	}
	// Encoding choices.
	if c := s.Cols[s.ColIndex(1)]; c.Enc != EncFixed8 {
		t.Fatalf("col 1 enc = %d, want fixed8", c.Enc)
	}
	if c := s.Cols[s.ColIndex(2)]; c.Enc != EncDict {
		t.Fatalf("col 2 enc = %d, want dict", c.Enc)
	}
	if c := s.Cols[s.ColIndex(3)]; c.Enc != EncPlain {
		t.Fatalf("col 3 enc = %d, want plain", c.Enc)
	}
}

func TestSegmentFindValue(t *testing.T) {
	s := buildTestSegment(t)
	if i, ok := s.Find(30); !ok || i != 3 {
		t.Fatalf("Find(30) = (%d, %v)", i, ok)
	}
	if _, ok := s.Find(31); ok {
		t.Fatal("Find(31) must miss")
	}
	if got := s.LowerBound(31); got != 4 {
		t.Fatalf("LowerBound(31) = %d, want 4", got)
	}
	c := &s.Cols[s.ColIndex(1)]
	for i := 0; i < s.Len(); i++ {
		v, ok := c.Value(i)
		if !ok || binary.LittleEndian.Uint64(v) != uint64(i+100) {
			t.Fatalf("col1 row %d = %v, %v", i, v, ok)
		}
	}
	c3 := &s.Cols[s.ColIndex(3)]
	for i := 0; i < s.Len(); i++ {
		_, ok := c3.Value(i)
		if want := i%3 == 0; ok != want {
			t.Fatalf("col3 presence row %d = %v, want %v", i, ok, want)
		}
	}
}

func TestMaxLiveTSExcluding(t *testing.T) {
	b := NewBuilder(1, 0)
	for i := 0; i < 130; i++ { // spans three bitmap words
		b.Add(uint64(i), int64(i+1), 1, i == 64, nil)
	}
	s := b.Build()
	if got := s.MaxLiveTSExcluding(nil, 0); got != 130 {
		t.Fatalf("no exclusions = %d, want 130", got)
	}
	if got := s.MaxLiveTSExcluding([]int{129}, 0); got != 129 {
		t.Fatalf("excluding the max = %d, want 129", got)
	}
	if got := s.MaxLiveTSExcluding([]int{127, 128, 129}, 0); got != 127 {
		t.Fatalf("excluding top three = %d, want 127", got)
	}
	if got := s.MaxLiveTSExcluding([]int{129}, 500); got != 500 {
		t.Fatalf("dominating seed = %d, want 500", got)
	}
}

func TestBuilderPanicsOnUnsortedKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending keys")
		}
	}()
	b := NewBuilder(1, 0)
	b.Add(5, 1, 1, false, nil)
	b.Add(5, 2, 2, false, nil)
}
