package memtable

// arena.go implements epoch arenas for version chains. A group batch's
// Versions and the Column headers they point at are the only replay
// allocations that outlive the epoch; dispatch has counted both before
// translate starts, so a VersionArena carves exactly that many — one slab
// each, no floor, no growth — and ties the slabs' lifetime to the version
// chains: Vacuum releases each unlinked version back to its arena, and
// once every version an arena issued is dead the arena retires itself to
// the pool, where the slabs are cleared and handed to the next batch they
// are large enough for. Column values are not arena memory at all: they
// alias the epoch buffer the frame was decoded from (wal.DecodeInto), so a
// surviving version pins its epoch's buffer through the collector, not
// through the pool.

import (
	"sync"
	"sync/atomic"

	"aets/internal/wal"
)

// VersionArena holds the Versions and Column headers of one replay batch.
//
// Lifetime: the replay engine obtains an arena with ArenaPool.Get (which
// pins it), carves once, and drops its pin with Unpin when the batch has
// committed. From then on the arena stays alive exactly as long as any of
// its versions is linked in a chain; Record.Vacuum releases versions as it
// unlinks them, and the release that drops the count to zero retires the
// arena for recycling.
type VersionArena struct {
	pool *ArenaPool
	// vers and cols are the carved windows. Their backing arrays are zero
	// beyond the windows: fresh from the runtime, or cleared by reset.
	vers []Version
	cols []wal.Column

	// live counts issued versions not yet released, plus one pin bias
	// while the replay engine still holds the arena.
	live atomic.Int64
}

// Carve returns exactly nvers zeroed versions, each tagged with the arena
// so Vacuum can release it, and exactly ncols zeroed column headers: one
// allocation each, or the recycled slab when it is large enough. Both
// slices are contiguous, and phase-1 workers write disjoint windows of
// them at precomputed per-piece offsets. Called once per Get.
func (a *VersionArena) Carve(nvers, ncols int) ([]Version, []wal.Column) {
	if cap(a.vers) < nvers {
		a.vers = make([]Version, nvers)
	}
	if cap(a.cols) < ncols {
		a.cols = make([]wal.Column, ncols)
	}
	a.vers, a.cols = a.vers[:nvers], a.cols[:ncols]
	for i := range a.vers {
		a.vers[i].arena = a
	}
	a.live.Add(int64(nvers))
	return a.vers, a.cols
}

// Unpin drops the engine's carving pin. Once unpinned, the arena recycles
// as soon as all its versions are vacuumed. Calling Unpin on an arena
// whose versions are already all dead retires it immediately.
func (a *VersionArena) Unpin() { a.release(1) }

// release subtracts n from the live count and retires the arena when it
// hits zero.
func (a *VersionArena) release(n int64) {
	if a.live.Add(-n) == 0 {
		a.pool.retire(a)
	}
}

// reset prepares a retired arena for reuse. Clearing the column window
// here, and not at the next Carve, is what stops a pooled arena from
// pinning the epoch buffers its dead columns alias.
func (a *VersionArena) reset() {
	clear(a.vers)
	clear(a.cols)
	a.vers, a.cols = a.vers[:0], a.cols[:0]
}

// ArenaPool recycles VersionArenas whose versions have all been vacuumed.
//
// Reclamation fence: a fully released arena is not reusable immediately.
// Vacuum's contract lets a reader that entered before the watermark keep
// walking the (now unlinked) suffix; handing that memory to a new epoch
// right away would let the writer overwrite what the straggler is
// reading. Retired arenas therefore park in a limbo list, and Flush —
// called at the start of the *next* Memtable.Vacuum — moves them to the
// free pool. Any reader that could see an arena's versions started before
// the Vacuum that killed them, so by the time the next Vacuum begins
// (one full GC interval later, chosen ≥ the longest query) it has
// finished. The fence covers versions and column headers only; the value
// bytes a straggler reads belong to the epoch buffer, which the collector
// keeps alive for as long as anything points into it.
type ArenaPool struct {
	pool sync.Pool // *VersionArena, reset and ready to carve

	mu    sync.Mutex
	limbo []*VersionArena

	recycled atomic.Int64
}

// Get returns an arena ready to carve, pinned for the caller. The arena
// must be Unpinned when the caller is done carving.
func (p *ArenaPool) Get() *VersionArena {
	var a *VersionArena
	if v := p.pool.Get(); v != nil {
		a = v.(*VersionArena)
	} else {
		a = &VersionArena{pool: p}
	}
	a.live.Store(1) // pin bias
	return a
}

// retire parks a fully released arena in limbo until the next Flush.
func (p *ArenaPool) retire(a *VersionArena) {
	p.mu.Lock()
	p.limbo = append(p.limbo, a)
	p.mu.Unlock()
}

// Flush moves limbo arenas to the free pool, clearing their slabs.
// Memtable.Vacuum calls it at the start of every cycle; see the fence
// comment above for why recycling is deferred by one cycle.
func (p *ArenaPool) Flush() {
	p.mu.Lock()
	l := p.limbo
	p.limbo = nil
	p.mu.Unlock()
	for _, a := range l {
		a.reset()
		p.pool.Put(a)
		p.recycled.Add(1)
	}
}

// Recycled returns the number of arenas recycled through the pool so far.
// Test and monitoring helper.
func (p *ArenaPool) Recycled() int64 { return p.recycled.Load() }
