package memtable

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"aets/internal/wal"
)

// replayEpoch simulates one replay batch: carve n versions and n column
// headers for keys 1..n from a fresh arena, point every value into one
// epoch buffer that nothing else references, commit at ts, and unpin.
func replayEpoch(mt *Memtable, n int, ts int64) *VersionArena {
	ar := mt.Arenas().Get()
	vers, cols := ar.Carve(n, n)
	buf := bytes.Repeat([]byte{byte(ts)}, n)
	tab := mt.Table(1)
	for i := range vers {
		cols[i] = wal.Column{ID: 1, Value: buf[i : i+1 : i+1]}
		vers[i].TxnID = uint64(ts)
		vers[i].CommitTS = ts
		vers[i].Columns = cols[i : i+1 : i+1]
		tab.GetOrCreate(uint64(i + 1)).Append(&vers[i])
	}
	ar.Unpin()
	return ar
}

// TestArenaRecyclesAfterVacuum drives the full lifecycle: versions from
// epoch 1 are overwritten by epoch 2, the first Vacuum unlinks them
// (retiring their arena to limbo), and the second Vacuum's flush returns
// the arena to the pool.
func TestArenaRecyclesAfterVacuum(t *testing.T) {
	mt := NewWithShards(2)
	replayEpoch(mt, 100, 10)
	replayEpoch(mt, 100, 20)

	if got := mt.Arenas().Recycled(); got != 0 {
		t.Fatalf("recycled %d arenas before any vacuum", got)
	}
	// First vacuum unlinks every ts=10 version; the epoch-1 arena's live
	// count hits zero and it parks in limbo — not yet reusable, a straggler
	// reader may still be walking the unlinked suffix.
	if removed := mt.Vacuum(25); removed != 100 {
		t.Fatalf("vacuum removed %d, want 100", removed)
	}
	if got := mt.Arenas().Recycled(); got != 0 {
		t.Fatalf("arena recycled at the vacuum that freed it — fence broken (got %d)", got)
	}
	// The next vacuum's flush is the reclamation fence.
	mt.Vacuum(25)
	if got := mt.Arenas().Recycled(); got != 1 {
		t.Fatalf("recycled %d arenas after second vacuum, want 1", got)
	}

	// Surviving epoch-2 data is intact.
	for k := uint64(1); k <= 100; k++ {
		v := mt.Table(1).Get(k).Visible(25)
		if v == nil || v.CommitTS != 20 {
			t.Fatalf("key %d: surviving version %+v", k, v)
		}
	}
}

// TestArenaPinBlocksRetire: an arena whose versions are all dead must stay
// un-retired while the engine still holds its carving pin.
func TestArenaPinBlocksRetire(t *testing.T) {
	var p ArenaPool
	a := p.Get() // pinned
	s, _ := a.Carve(3, 0)
	for i := range s {
		s[i].arena.release(1) // simulate vacuum unlinking each version
	}
	p.Flush()
	if p.Recycled() != 0 {
		t.Fatal("arena retired while pinned")
	}
	a.Unpin() // drops to zero → limbo
	p.Flush()
	if p.Recycled() != 1 {
		t.Fatalf("recycled %d after unpin+flush, want 1", p.Recycled())
	}
}

// TestArenaReuseZeroed: an arena coming back from reset hands out zero
// versions and column headers even though its slabs held a previous
// epoch, reuses a slab that is large enough, and replaces one that is not
// with an exact-sized allocation — no floor, no doubling. (This is the
// reuse-if-fits behaviour the deleted internal/alloc slab test covered.)
func TestArenaReuseZeroed(t *testing.T) {
	var p ArenaPool
	a := p.Get()
	s, c := a.Carve(16, 40)
	if len(s) != 16 || cap(s) != 16 || len(c) != 40 || cap(c) != 40 {
		t.Fatalf("carved %d/%d versions, %d/%d columns; want exactly 16 and 40", len(s), cap(s), len(c), cap(c))
	}
	for i := range s {
		s[i].TxnID = 99
		s[i].CommitTS = 99
		s[i].Deleted = true
		s[i].Columns = c[:2]
		s[i].next.Store(&s[0])
	}
	for i := range c {
		c[i] = wal.Column{ID: 7, Value: []byte("epoch buffer")}
	}
	a.reset()
	s2, c2 := a.Carve(10, 40)
	if &s2[0] != &s[0] || &c2[0] != &c[0] {
		t.Fatal("a slab large enough for the batch was not reused")
	}
	for i := range s2 {
		v := &s2[i]
		if v.TxnID != 0 || v.CommitTS != 0 || v.Deleted || v.Columns != nil || v.next.Load() != nil {
			t.Fatalf("reused version %d not zeroed: %+v", i, v)
		}
		if v.arena != a {
			t.Fatalf("reused version %d not tagged with its arena", i)
		}
	}
	for i, col := range c2 {
		if col.ID != 0 || col.Value != nil {
			t.Fatalf("reused column %d not zeroed: %+v", i, col)
		}
	}
	a.reset()
	s3, c3 := a.Carve(17, 1)
	if cap(s3) != 17 {
		t.Fatalf("slab too small for 17 versions was replaced by one of %d", cap(s3))
	}
	if &c3[0] != &c[0] {
		t.Fatal("column slab large enough for 1 header was not reused")
	}
}

// TestArenaStragglerSurvivesVacuum walks the whole lifetime contract. A
// reader that entered below the watermark holds a version Vacuum then
// unlinks; with the arena in limbo and its epoch buffer referenced by
// nothing but the dead columns, the reader still walks the suffix and
// reads intact values. Only the next Vacuum's Flush recycles the arenas,
// and the reset leaves no Column in either slab pointing at a buffer.
func TestArenaStragglerSurvivesVacuum(t *testing.T) {
	mt := NewWithShards(2)
	a1 := replayEpoch(mt, 50, 10)
	a2 := replayEpoch(mt, 50, 20)
	replayEpoch(mt, 50, 30)

	rec := mt.Table(1).Get(7)
	held := rec.Visible(25) // the reader's snapshot: ts 20, then 10 behind it
	entered, vacuumed := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(entered)
		<-vacuumed
		for v, ts := held, int64(20); ts > 0; v, ts = v.Next(), ts-10 {
			if v == nil || v.CommitTS != ts || len(v.Columns) != 1 ||
				!bytes.Equal(v.Columns[0].Value, []byte{byte(ts)}) {
				done <- fmt.Errorf("straggler at ts %d sees %+v", ts, v)
				return
			}
		}
		done <- nil
	}()
	<-entered
	if removed := mt.Vacuum(35); removed != 100 {
		t.Fatalf("vacuum removed %d, want 100", removed)
	}
	runtime.GC()
	runtime.GC()
	close(vacuumed)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := mt.Arenas().Recycled(); got != 0 {
		t.Fatalf("%d arenas recycled while a straggler could still be reading", got)
	}

	mt.Vacuum(35) // the fence: a full vacuum interval later
	if got := mt.Arenas().Recycled(); got != 2 {
		t.Fatalf("recycled %d arenas, want 2", got)
	}
	for _, a := range []*VersionArena{a1, a2} {
		for i, c := range a.cols[:cap(a.cols)] {
			if c.Value != nil {
				t.Fatalf("recycled arena still holds column %d → %q: it pins a dead epoch buffer", i, c.Value)
			}
		}
		vers := a.vers[:cap(a.vers)]
		for i := range vers {
			if v := &vers[i]; v.Columns != nil || v.arena != nil {
				t.Fatalf("recycled arena still holds version %d: %+v", i, v)
			}
		}
	}
	if v := rec.Visible(35); v == nil || v.CommitTS != 30 || v.Next() != nil {
		t.Fatalf("surviving chain of key 7: %+v", v)
	}
}
