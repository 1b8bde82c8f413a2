package replay

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"aets/internal/dispatch"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// tplr.go implements TPLR, the two-phase parallel log replay algorithm
// (paper §V-A, Algorithms 1 and 2), for a single group batch.
//
// Phase 1 (translate): n workers pull transaction pieces off the batch,
// fully decode their frames, resolve the Memtable record each entry targets
// and build *uncommitted cells* — no locks, no dependency tracking, no
// installation into version chains. Completed pieces are handed to the
// waiting_commit_list.
//
// Phase 2 (commit): a single commit goroutine per group walks the group's
// commit_order_queue; for each slot it waits until that transaction's cells
// are in the waiting list, appends them to their records' version chains
// (the only locked step, and the lock hold time is one pointer swap), and
// advances the group's tg_cmt_ts.
//
// The waiting_commit_list is a slot-indexed ring rather than a keyed map:
// dispatch stores pieces in primary commit order, so piece i IS the i-th
// transaction the committer needs, and phase-1 workers deliver into a
// preallocated slot array while the committer waits on exactly the next
// slot. There is no broadcast storm — a worker takes the wake-up lock only
// when the committer has actually parked. All hand-off scaffolding (slots,
// deliveries, cells, offsets) is recycled through a sync.Pool, so the
// steady-state hand-off allocates nothing.
//
// What outlives the epoch in the Memtable's version chains is a function
// of the batch's entries and nothing else: dispatch counted the batch's
// entries and columns on its header scan, and the batch carves exactly
// that many Versions and Column headers from one memtable.VersionArena —
// no floor, no growth — whose slabs come back through the Memtable's pool
// once Vacuum has unlinked every version it issued. Values are not copied
// at all: each Column.Value aliases the epoch buffer (wal.DecodeInto), so
// a surviving version keeps its epoch's buffer alive, and that buffer must
// not change after Feed (the contract is stated on epoch.Encoded).

// cell is one uncommitted modification produced by phase 1: a pointer to
// the Memtable record plus the fully built version to link at commit. The
// version is carved from the batch's version slab in the embarrassingly
// parallel phase, so the single-threaded commit phase does nothing but set
// the commit timestamp and swing two pointers under the record lock.
type cell struct {
	rec *memtable.Record
	ver *memtable.Version
}

// delivery is a replayed transaction piece parked in the waiting list.
type delivery struct {
	cells    []cell
	commitTS int64
}

// errBox wraps an error for atomic publication from phase-1 workers.
type errBox struct{ err error }

// batchState is the recycled per-batch hand-off state: the slot ring, the
// delivery and cell slabs, and the per-piece offsets at which phase 1
// writes its disjoint windows of the cells and of the batch's arena (vers
// and cols, borrowed for the batch). Acquired from the engine's pool at
// the start of replayGroup and returned when the batch is fully committed.
type batchState struct {
	slots      []atomic.Pointer[delivery]
	deliveries []delivery
	cells      []cell
	offsets    []int // piece i's first cell and version
	colOffsets []int // piece i's first column header

	vers []memtable.Version
	cols []wal.Column

	errv   atomic.Pointer[errBox]
	mu     sync.Mutex
	cond   *sync.Cond
	parked atomic.Bool
}

// reset sizes the state for a batch of npieces pieces totalling nentries
// entries and clears any residue from the previous batch. Called before
// any worker goroutine exists, so plain writes are safe.
func (bs *batchState) reset(npieces, nentries int) {
	if bs.cond == nil {
		bs.cond = sync.NewCond(&bs.mu)
	}
	if cap(bs.slots) < npieces {
		bs.slots = make([]atomic.Pointer[delivery], npieces)
		bs.deliveries = make([]delivery, npieces)
		bs.offsets = make([]int, npieces)
		bs.colOffsets = make([]int, npieces)
	} else {
		bs.slots = bs.slots[:npieces]
		for i := range bs.slots {
			bs.slots[i].Store(nil)
		}
		bs.deliveries = bs.deliveries[:npieces]
		bs.offsets = bs.offsets[:npieces]
		bs.colOffsets = bs.colOffsets[:npieces]
	}
	if cap(bs.cells) < nentries {
		bs.cells = make([]cell, nentries)
	} else {
		bs.cells = bs.cells[:nentries]
	}
	bs.errv.Store(nil)
	bs.parked.Store(false)
}

// deliver publishes slot i and wakes the committer only if it is parked.
func (bs *batchState) deliver(i int, d *delivery) {
	bs.slots[i].Store(d)
	if bs.parked.Load() {
		bs.mu.Lock()
		bs.cond.Broadcast()
		bs.mu.Unlock()
	}
}

// fail publishes the first worker error and wakes the committer.
func (bs *batchState) fail(err error) {
	bs.errv.CompareAndSwap(nil, &errBox{err})
	bs.mu.Lock()
	bs.cond.Broadcast()
	bs.mu.Unlock()
}

func (bs *batchState) errOrNil() error {
	if b := bs.errv.Load(); b != nil {
		return b.err
	}
	return nil
}

// take blocks until slot i's delivery is available (Algorithm 1's min-ID
// wait: slots are consumed in commit order, so waiting on slot i is
// waiting for its transaction to become the minimum). A short cooperative
// spin covers the common case where the pipeline is ahead of the
// committer; only then does the committer park on the condition variable.
func (bs *batchState) take(i int) (*delivery, error) {
	for spin := 0; spin < 128; spin++ {
		if d := bs.slots[i].Load(); d != nil {
			return d, nil
		}
		if err := bs.errOrNil(); err != nil {
			return nil, err
		}
		runtime.Gosched()
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.parked.Store(true)
	defer bs.parked.Store(false)
	for {
		if d := bs.slots[i].Load(); d != nil {
			return d, nil
		}
		if err := bs.errOrNil(); err != nil {
			return nil, err
		}
		bs.cond.Wait()
	}
}

// acquireBatch takes hand-off state from the engine pool, sized for the
// given batch shape.
func (e *Engine) acquireBatch(npieces, nentries int) *batchState {
	var bs *batchState
	if v := e.batchPool.Get(); v != nil {
		bs = v.(*batchState)
		e.cHandoffReuse.Inc()
	} else {
		bs = new(batchState)
		e.cHandoffAlloc.Inc()
	}
	bs.reset(npieces, nentries)
	return bs
}

func (e *Engine) releaseBatch(bs *batchState) {
	// Deliveries keep cell-slab sub-slices; drop them so the pool does not
	// pin record pointers beyond the batch's lifetime.
	for i := range bs.deliveries {
		bs.deliveries[i].cells = nil
	}
	for i := range bs.cells {
		bs.cells[i] = cell{}
	}
	bs.vers, bs.cols = nil, nil
	e.batchPool.Put(bs)
}

// Sizes of what a batch carves, for replay_arena_bytes_total.
const (
	versionBytes = int64(unsafe.Sizeof(memtable.Version{}))
	columnBytes  = int64(unsafe.Sizeof(wal.Column{}))
)

// replayGroup runs TPLR over one group batch with n phase-1 workers. The
// calling goroutine acts as the group's single commit thread.
//
// When the group received a single worker, both phases collapse onto the
// committer goroutine: pieces arrive from dispatch already in commit order,
// so translating and committing them in sequence preserves exactly the
// two-phase semantics with none of the hand-off. Workloads with many small
// groups (BusTracker's 65 singleton tables) spend most of their time on
// this path.
func (e *Engine) replayGroup(vs *visState, gb *dispatch.GroupBatch, n int) error {
	// Versions and column headers are installed into the Memtable's chains
	// and outlive the epoch, so they cannot ride the hand-off pool; they
	// come from an epoch arena instead, whose memory Vacuum recycles.
	ar := e.mt.Arenas().Get()
	defer ar.Unpin()
	bs := e.acquireBatch(len(gb.Pieces), gb.Entries)
	defer e.releaseBatch(bs)
	bs.vers, bs.cols = ar.Carve(gb.Entries, gb.Columns)
	e.cArenaBytes.Add(int64(gb.Entries)*versionBytes + int64(gb.Columns)*columnBytes)
	off, coff := 0, 0
	for i := range gb.Pieces {
		bs.offsets[i], bs.colOffsets[i] = off, coff
		off += len(gb.Pieces[i].Frames)
		coff += gb.Pieces[i].Columns
	}

	if n <= 1 {
		var tc tableCache
		var commit time.Duration
		t0 := time.Now()
		for i := range gb.Pieces {
			cells, err := e.translate(gb, bs, i, &tc)
			if err != nil {
				return err
			}
			commit += e.commitPiece(vs, gb.Group, cells, gb.Pieces[i].CommitTS)
		}
		if e.cfg.Breakdown != nil {
			// Commit time is its own share; keep it out of replay's.
			e.cfg.Breakdown.AddReplay(time.Since(t0) - commit)
		}
		return nil
	}

	var next atomic.Int64
	var workers sync.WaitGroup
	for k := 0; k < n; k++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var tc tableCache
			t0 := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(gb.Pieces) {
					break
				}
				cells, err := e.translate(gb, bs, i, &tc)
				if err != nil {
					bs.fail(err)
					return
				}
				d := &bs.deliveries[i]
				d.cells = cells
				d.commitTS = gb.Pieces[i].CommitTS
				bs.deliver(i, d)
			}
			if e.cfg.Breakdown != nil {
				e.cfg.Breakdown.AddReplay(time.Since(t0))
			}
		}()
	}

	var commitErr error
	for i := range gb.Pieces {
		d, err := bs.take(i)
		if err != nil {
			commitErr = err
			break
		}
		e.commitPiece(vs, gb.Group, d.cells, d.commitTS)
	}

	workers.Wait()
	return commitErr
}

// commitPiece is TPLR phase 2 for one transaction piece: stamp and link
// every cell, then advance the group's tg_cmt_ts. It returns the time it
// took, observed once per piece in replay_commit_seconds.
func (e *Engine) commitPiece(vs *visState, group int, cells []cell, commitTS int64) time.Duration {
	t0 := time.Now()
	for j := range cells {
		c := &cells[j]
		c.ver.CommitTS = commitTS
		c.rec.Append(c.ver)
	}
	e.publishGroup(vs, group, commitTS)
	cd := time.Since(t0)
	e.hCommit.Observe(cd)
	if e.cfg.Breakdown != nil {
		e.cfg.Breakdown.AddCommit(cd)
	}
	return cd
}

// tableCache is a per-worker one-entry table-handle cache: group batches
// are table-clustered, so consecutive entries overwhelmingly hit the same
// table and the Memtable map lookup happens once per table run instead of
// once per entry.
type tableCache struct {
	id  wal.TableID
	tab *memtable.Table
}

// tableFor resolves a table handle through the worker's cache.
func (e *Engine) tableFor(c *tableCache, id wal.TableID) *memtable.Table {
	if c.tab == nil || c.id != id {
		c.tab = e.mt.Table(id)
		c.id = id
	}
	return c.tab
}

// translate is TPLR phase 1 for piece i of the batch: decode each frame
// and turn it into an uncommitted cell pointing at its Memtable record.
// Records are created on first reference (inserts), but no version is
// installed and no table-wide lock is taken — GetOrCreate synchronises
// only on the key's shard. The cells, versions and column headers are the
// piece's own windows of the batch's slabs, sized by dispatch's header
// scan; the full decode must use the columns up exactly.
func (e *Engine) translate(gb *dispatch.GroupBatch, bs *batchState, i int, tc *tableCache) ([]cell, error) {
	p := &gb.Pieces[i]
	o, co := bs.offsets[i], bs.colOffsets[i]
	cells := bs.cells[o : o+len(p.Frames) : o+len(p.Frames)]
	vers := bs.vers[o : o+len(p.Frames)]
	cols := bs.cols[co : co+p.Columns]
	for j, frame := range p.Frames {
		entry, _, err := wal.DecodeInto(frame, cols)
		if err != nil {
			return nil, fmt.Errorf("group %d txn %d: %w", gb.Group, p.TxnID, err)
		}
		cols = cols[len(entry.Columns):]
		rec := e.tableFor(tc, entry.Table).GetOrCreate(entry.RowKey)
		v := &vers[j]
		v.TxnID = p.TxnID
		v.Deleted = entry.Type == wal.TypeDelete
		v.Columns = entry.Columns
		cells[j] = cell{rec: rec, ver: v}
	}
	if len(cols) != 0 {
		return nil, fmt.Errorf("group %d txn %d: %w: frames hold %d columns fewer than their headers declared",
			gb.Group, p.TxnID, wal.ErrCorrupt, len(cols))
	}
	return cells, nil
}
