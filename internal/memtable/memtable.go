// Package memtable implements the backup node's multi-version in-memory
// storage engine: a B+Tree per table whose records carry transaction-ID
// ordered version chains (paper §III-A, Figure 6).
//
// The paper describes one B+Tree per table behind one lock (§VI-A1). That
// serialises TPLR's translate phase — which the paper promises is "no
// dependency tracking, no locks" (§IV) — so this implementation splits
// every table into N key-hash shards (N = next power of two ≥ GOMAXPROCS),
// each with its own B+Tree and read/write mutex. Concurrent GetOrCreate
// calls on different shards never touch the same mutex. Scan puts the
// shards back into global key order by gathering each shard's range and
// sorting the pairs by key (SortDedupePairs, the package's one key sort);
// ScanAny visits shards one by one with no sort for order-insensitive
// aggregates.
package memtable

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aets/internal/wal"
)

// Version is one committed after-image of a record. Versions form a
// newest-first singly linked chain; the chain is strictly decreasing in
// CommitTS, which equals the primary's commit order. The chain link is
// atomic because readers traverse lock-free while Vacuum truncates
// chains concurrently.
type Version struct {
	TxnID    uint64
	CommitTS int64
	Deleted  bool
	Columns  []wal.Column
	next     atomic.Pointer[Version] // next-older version

	// arena, when non-nil, is the epoch arena this version was carved
	// from; Vacuum releases the version back to it on unlink so the
	// arena's memory can be recycled once every version it issued is dead.
	arena *VersionArena
}

// Next returns the next-older version, or nil at the end of the chain.
func (v *Version) Next() *Version { return v.next.Load() }

// Record is one row of a table. The head of its version chain is an atomic
// pointer so that readers never block: Algorithm 1's short exclusive lock is
// needed only to serialise writers, and within AETS each record is committed
// by exactly one group commit goroutine, so the mutex is uncontended in the
// common case.
type Record struct {
	Key uint64

	mu     sync.Mutex
	head   atomic.Pointer[Version]
	writes atomic.Uint64

	// hotAt points at the shard whose hot list tracks this record; set
	// once under the shard write lock when the record is created. hotFlag
	// reports whether the record is currently on that list (see hot.go).
	hotAt   *shard
	hotFlag atomic.Bool
}

// Append installs v as the newest version (Algorithm 1, lines 10-13).
//
// The writes counter is bumped before the new head is published, all inside
// the critical section: a concurrent reader that observes the new chain
// head is then guaranteed to observe the incremented count as well. (The
// previous ordering — increment after unlock — let ATR's operation-sequence
// witness see a head whose write was not yet counted and mis-validate.)
//
// A record transitioning from an empty chain to a non-empty one (its first
// version ever, or its first version after a columnar freeze emptied the
// chain) registers itself on its shard's hot list, which is how the
// columnar compactor and the query planner's delta path enumerate records
// that carry in-memory versions without walking the whole tree.
func (r *Record) Append(v *Version) {
	r.mu.Lock()
	wasEmpty := r.head.Load() == nil
	v.next.Store(r.head.Load())
	r.writes.Add(1)
	r.head.Store(v)
	if wasEmpty {
		r.markHot()
	}
	r.mu.Unlock()
}

// Writes returns the number of versions installed so far. ATR's operation
// sequence check compares it against an entry's WriteSeq witness.
func (r *Record) Writes() uint64 { return r.writes.Load() }

// Latest returns the newest version, or nil if the record has none yet.
func (r *Record) Latest() *Version {
	return r.head.Load()
}

// Visible returns the newest version with CommitTS ≤ qts (Algorithm 3,
// line 11), or nil if no such version exists.
func (r *Record) Visible(qts int64) *Version {
	for v := r.head.Load(); v != nil; v = v.Next() {
		if v.CommitTS <= qts {
			return v
		}
	}
	return nil
}

// ReadRow materialises the full column image of the record as of qts by
// merging after-images from the newest visible version back to the insert
// that created it. It returns nil if the record is invisible or deleted at
// qts.
func (r *Record) ReadRow(qts int64) map[uint32][]byte {
	v := r.Visible(qts)
	if v == nil || v.Deleted {
		return nil
	}
	row := make(map[uint32][]byte, len(v.Columns))
	for ; v != nil; v = v.Next() {
		if v.Deleted {
			break // versions older than a delete belong to a prior row
		}
		for _, c := range v.Columns {
			if _, ok := row[c.ID]; !ok {
				row[c.ID] = c.Value
			}
		}
	}
	return row
}

// ChainLen returns the number of versions in the chain. Test helper.
func (r *Record) ChainLen() int {
	n := 0
	for v := r.head.Load(); v != nil; v = v.Next() {
		n++
	}
	return n
}

// ChainOrdered reports whether the version chain is newest-first ordered by
// (CommitTS, TxnID) compared lexicographically: TxnID only breaks CommitTS
// ties. A chain whose CommitTS strictly decreases is ordered regardless of
// how the TxnIDs relate. Equal pairs are permitted for adjacent versions
// because one transaction may modify the same row more than once; its
// versions then appear in entry order. Test helper for the core MVCC
// invariant.
func (r *Record) ChainOrdered() bool {
	v := r.head.Load()
	for v != nil && v.Next() != nil {
		n := v.Next()
		if v.CommitTS < n.CommitTS || (v.CommitTS == n.CommitTS && v.TxnID < n.TxnID) {
			return false
		}
		v = n
	}
	return true
}

// ---------------------------------------------------------------------------
// Shard-lock wait observability.

// WaitObserver receives the time a caller spent blocked acquiring a shard
// lock. metrics.Histogram satisfies it; memtable deliberately does not
// import the metrics package.
type WaitObserver interface {
	Observe(time.Duration)
}

// obsHook is the shared, swappable wait observer. Every Table of a
// Memtable points at the same hook, so SetWaitObserver takes effect for
// tables created before and after the call.
type obsHook struct {
	o atomic.Pointer[WaitObserver]
}

// rlock acquires mu for reading. The TryRLock fast path keeps the
// uncontended case free of clock reads; only a blocked acquisition is
// timed and reported.
func (h *obsHook) rlock(mu *sync.RWMutex) {
	if mu.TryRLock() {
		return
	}
	op := h.o.Load()
	if op == nil {
		mu.RLock()
		return
	}
	t0 := time.Now()
	mu.RLock()
	(*op).Observe(time.Since(t0))
}

// lock is rlock for the write lock.
func (h *obsHook) lock(mu *sync.RWMutex) {
	if mu.TryLock() {
		return
	}
	op := h.o.Load()
	if op == nil {
		mu.Lock()
		return
	}
	t0 := time.Now()
	mu.Lock()
	(*op).Observe(time.Since(t0))
}

// ---------------------------------------------------------------------------
// Sharded table.

// shard is one key-hash partition of a table: its own B+Tree behind its
// own lock. Padding keeps neighbouring shards' mutexes off one cache line
// so contended CAS traffic on shard i does not invalidate shard i+1.
type shard struct {
	mu sync.RWMutex
	t  *tree
	_  [96]byte

	// hot lists records of this shard that carry an in-memory version
	// chain (see hot.go). It is an over-approximation maintained under
	// its own mutex so the Append fast path never touches mu. hotGen
	// counts changes to hot, bumped under hotMu; Table.Delta reads it
	// without the lock to tell whether its cached view is current.
	hotMu  sync.Mutex
	hot    []*Record
	hotGen atomic.Uint64
}

// Table is the sharded B+Tree index of one table's records.
type Table struct {
	ID wal.TableID

	mask   uint64
	shards []shard
	obs    *obsHook

	// scan keeps the last ordered Scan's gather buffers for the next one,
	// so repeated scans run allocation-free. A sync.Pool would empty at
	// every GC and make each periodic checkpoint re-grow them for every
	// table. A Scan that finds the slot empty (another is running)
	// gathers into fresh buffers. The records they pin live as long as
	// the table anyway: records are never removed from it.
	scan atomic.Pointer[scanScratch]

	// delta is the cached key-ordered view of the hot lists (hot.go).
	// deltaMu serialises its rebuilds and guards the radix temporaries,
	// which only a rebuild uses; the view itself is never written after
	// publication, so readers share it without a lock.
	delta     atomic.Pointer[Delta]
	deltaMu   sync.Mutex
	deltaTmpR []*Record
	deltaTmpK []uint64
}

// scanScratch is one ordered Scan's gather buffer: the (key, record) pairs
// collected from every shard plus the radix sort's temporaries.
type scanScratch struct {
	keys, tmpK []uint64
	recs, tmpR []*Record
}

// newTable builds a table with n shards (n must be a power of two).
func newTable(id wal.TableID, n int, obs *obsHook) *Table {
	t := &Table{ID: id, mask: uint64(n - 1), shards: make([]shard, n), obs: obs}
	for i := range t.shards {
		t.shards[i].t = newTree()
	}
	return t
}

// shardOf maps a row key to its shard index. Row keys are often dense
// (sequential order IDs) or structured (warehouse*K+district), so the key
// is mixed through a splitmix64 finalizer before masking; without it,
// dense key ranges would pile onto a few shards.
func (t *Table) shardOf(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return key & t.mask
}

// Get returns the record with the given row key, or nil.
func (t *Table) Get(key uint64) *Record {
	s := &t.shards[t.shardOf(key)]
	t.obs.rlock(&s.mu)
	rec := s.t.get(key)
	s.mu.RUnlock()
	return rec
}

// GetOrCreate returns the record with the given row key, creating an empty
// record (no versions) if absent. TPLR's first phase uses this to resolve
// the Memtable node an uncommitted cell will point at. Calls for keys on
// different shards proceed in parallel with no shared lock.
func (t *Table) GetOrCreate(key uint64) *Record {
	s := &t.shards[t.shardOf(key)]
	t.obs.rlock(&s.mu)
	rec := s.t.get(key)
	s.mu.RUnlock()
	if rec != nil {
		return rec
	}
	t.obs.lock(&s.mu)
	rec, created := s.t.getOrCreate(key)
	if created {
		rec.hotAt = s
	}
	s.mu.Unlock()
	return rec
}

// Scan visits records with from ≤ key ≤ to in ascending key order until fn
// returns false. A single-shard table walks its tree under its one read
// lock. Otherwise each shard's range is gathered under that shard's read
// lock alone — a whole leaf window per copy — and the pairs are sorted by
// key before fn sees the first one, so fn runs with no shard lock held and
// writers may proceed beside it. Either way, records created concurrently
// may or may not be observed; callers that need a consistent cut across
// the table (checkpoints, digests) get it from their own write fence, not
// from shard locks. The steady path performs no allocations: the table
// keeps its gather buffers between scans.
func (t *Table) Scan(from, to uint64, fn func(key uint64, rec *Record) bool) {
	if len(t.shards) == 1 {
		s := &t.shards[0]
		t.obs.rlock(&s.mu)
		defer s.mu.RUnlock()
		s.t.scan(from, to, fn)
		return
	}
	sc := t.scan.Swap(nil)
	if sc == nil {
		sc = &scanScratch{}
	}
	keys, recs := sc.keys[:0], sc.recs[:0]
	for i := range t.shards {
		s := &t.shards[i]
		t.obs.rlock(&s.mu)
		keys, recs = s.t.appendRange(from, to, keys, recs)
		s.mu.RUnlock()
	}
	if len(sc.tmpK) < len(keys) {
		sc.tmpK, sc.tmpR = make([]uint64, cap(keys)), make([]*Record, cap(keys))
	}
	// Shards partition the keys, so the dedupe finds nothing to drop.
	sc.recs, sc.keys = SortDedupePairs(recs, keys, sc.tmpR, sc.tmpK)
	for i, k := range sc.keys {
		if !fn(k, sc.recs[i]) {
			break
		}
	}
	t.scan.Store(sc)
}

// ScanAny visits records with from ≤ key ≤ to until fn returns false,
// with NO global ordering guarantee: shards are visited one after
// another, each in its own ascending key order, with no sort. Aggregates
// that do not need key order (counts, sums, max-timestamp probes) should
// prefer it over Scan — it is the single-tree fast path repeated per
// shard. One shard read lock is held at a time, across fn, so records
// created concurrently in a not-yet-visited shard may be observed while
// ones in an already-visited shard are not; the per-record visibility
// rules (version chains) are unaffected. The steady path performs no
// allocations.
func (t *Table) ScanAny(from, to uint64, fn func(key uint64, rec *Record) bool) {
	for i := range t.shards {
		s := &t.shards[i]
		t.obs.rlock(&s.mu)
		completed := s.t.scan(from, to, fn)
		s.mu.RUnlock()
		if !completed {
			return
		}
	}
}

// Len returns the number of records in the table.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		t.obs.rlock(&s.mu)
		n += s.t.len()
		s.mu.RUnlock()
	}
	return n
}

// CheckInvariants verifies the B+Tree structural invariants of every shard
// and the cross-shard key partition: each key must live in exactly the
// shard its hash selects, which is what lets Scan gather the shards'
// ranges into one vector with no duplicate key. Test helper; it returns ""
// when the table is well-formed.
func (t *Table) CheckInvariants() string {
	for i := range t.shards {
		s := &t.shards[i]
		t.obs.rlock(&s.mu)
		msg := s.t.checkInvariants()
		if msg == "" {
			s.t.scan(0, ^uint64(0), func(key uint64, _ *Record) bool {
				if want := t.shardOf(key); want != uint64(i) {
					msg = fmt.Sprintf("key %d found in shard %d, hashes to shard %d", key, i, want)
					return false
				}
				return true
			})
		}
		s.mu.RUnlock()
		if msg != "" {
			return fmt.Sprintf("shard %d: %s", i, msg)
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Memtable: the set of tables.

// tableMap is the copy-on-write table index. Lookups are a single atomic
// pointer load; the map itself is never mutated after publication.
type tableMap = map[wal.TableID]*Table

// Memtable is the set of tables of the backup database.
type Memtable struct {
	tables  atomic.Pointer[tableMap]
	mu      sync.Mutex // serialises table creation (rare)
	nshards int
	obs     obsHook
	arenas  ArenaPool
}

// New returns an empty Memtable whose tables carry the default shard
// count: the next power of two ≥ GOMAXPROCS, so that a full complement of
// replay workers can translate without colliding on a shard lock.
func New() *Memtable {
	return NewWithShards(defaultShards())
}

// NewWithShards returns an empty Memtable with an explicit per-table shard
// count (rounded up to a power of two, minimum 1). Tests and benchmarks
// use it to pin the shard layout regardless of the host.
func NewWithShards(n int) *Memtable {
	m := &Memtable{nshards: nextPow2(n)}
	empty := tableMap{}
	m.tables.Store(&empty)
	return m
}

func defaultShards() int {
	return nextPow2(runtime.GOMAXPROCS(0))
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SetWaitObserver installs o as the shard-lock wait observer: every time a
// lock acquisition on any shard of any table blocks, the wait duration is
// reported to o. A nil o disables observation. Takes effect immediately
// for existing tables.
func (m *Memtable) SetWaitObserver(o WaitObserver) {
	if o == nil {
		m.obs.o.Store(nil)
		return
	}
	m.obs.o.Store(&o)
}

// Arenas returns the Memtable's version-arena pool. Replay carves epoch
// version slabs from it; Vacuum drives the recycling.
func (m *Memtable) Arenas() *ArenaPool { return &m.arenas }

// Table returns the table with the given ID, creating it if absent. The
// lookup is a lock-free atomic pointer load over a copy-on-write map —
// table creation is rare (schema-sized), lookups happen per replayed log
// entry.
func (m *Memtable) Table(id wal.TableID) *Table {
	if t := (*m.tables.Load())[id]; t != nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.tables.Load()
	if t := old[id]; t != nil {
		return t
	}
	t := newTable(id, m.nshards, &m.obs)
	next := make(tableMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = t
	m.tables.Store(&next)
	return t
}

// Tables returns a snapshot of all table IDs currently present.
func (m *Memtable) Tables() []wal.TableID {
	tabs := *m.tables.Load()
	out := make([]wal.TableID, 0, len(tabs))
	for id := range tabs {
		out = append(out, id)
	}
	return out
}
