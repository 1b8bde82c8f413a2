package memtable

// merge.go stitches the per-shard B+Tree leaf chains of a sharded Table
// back into one globally ordered stream. Two layers share the work: the
// merge cascade below performs the actual k-way merge, and the merged-scan
// view (view.go) memoizes one cascade pass so repeated ordered scans of an
// unchanged table skip merging entirely. The cascade is a binary tree of
// branchless two-way merges (DESIGN.md §14):
//
//   - The k shard streams feed a perfect binary tree of k-1 merge stages
//     (k is always a power of two; newTable enforces it). Each stage merges
//     exactly two sorted inputs into 256-element chunks, pull-driven: a
//     stage refills its chunk only when its parent has consumed the
//     previous one, so memory stays O(k · chunk) regardless of table size.
//   - Every stage's inner loop is branchless: the winner of a comparison
//     is selected with a borrow mask from bits.Sub64 (SBB on amd64) and
//     cursor advances are arithmetic. A k-way tournament resolves ~log₂ k
//     bits of inherently unpredictable branching per element; taken
//     through branches that is ~log₂ k mispredictions (~15-20 cycles
//     each) per record. The cascade spends the same log₂ k comparisons
//     but each stage is a straight-line counted loop with zero
//     unpredictable branches, so it runs at ALU throughput instead of
//     misprediction latency. Measured on the reference 8-shard merge the
//     cascade is ~2.5x faster than the binary heap of iterators it
//     replaced and ~1.7x faster than a hand-optimized loser tree
//     (EXPERIMENTS.md has the full progression).
//   - The bottom stages read keys and records straight out of B+Tree leaf
//     arrays — leaves are clamped against the scan bound once per leaf
//     (binary search), so the counted loops never test the bound per key.
//
// Scratch state (stage nodes, chunk buffers) comes from a per-table
// sync.Pool, so the steady path allocates nothing. Chunk record arrays are
// not cleared on release: they pin only this table's slab-carved records,
// which live exactly as long as the table (and its pool) anyway.

import "math/bits"

// mergeChunk is the element capacity of one cascade stage's output chunk.
// 256 keeps a node's working set (~4 KB) L1-resident while amortizing
// refill dispatch to once per 256 records.
const mergeChunk = 256

// leafCursor is a position in one shard's leaf chain, pre-clamped against
// the scan's upper bound: i < lim always indexes an in-range key, and
// n == nil means the stream is exhausted. Clamping per leaf (one
// comparison against the leaf's last key, or one binary search on the
// boundary leaf) is what lets the merge loops run counted, with no
// per-key bound test.
type leafCursor struct {
	n   *node
	i   int
	lim int
}

func (c *leafCursor) init(tr *tree, from, effTo uint64) {
	it := tr.seek(from)
	if it.n == nil {
		c.n = nil
		return
	}
	c.n, c.i = it.n, it.i
	c.clamp(effTo)
}

// clamp truncates the current leaf at effTo, marking the stream exhausted
// if nothing in range remains. Leaves are ascending, so a leaf containing
// a key > effTo is the stream's last.
func (c *leafCursor) clamp(effTo uint64) {
	n := c.n
	if n.keys[n.n-1] <= effTo {
		c.lim = n.n
		return
	}
	lim, _ := n.search(effTo + 1)
	if lim <= c.i {
		c.n = nil
		return
	}
	c.lim = lim
}

// advance hops to the next leaf once the current one is consumed.
func (c *leafCursor) advance(effTo uint64) {
	n := c.n.next
	for n != nil && n.n == 0 {
		n = n.next
	}
	if n == nil {
		c.n = nil
		return
	}
	c.n, c.i = n, 0
	c.clamp(effTo)
}

// cascNode is one two-way merge stage. Base stages (a == nil) merge two
// shard leaf streams; interior stages merge two child nodes' chunk
// streams. Either way the output is chunks of up to mergeChunk
// (key, record) pairs, consumed by the parent via keys/recs[i:n].
type cascNode struct {
	a, b   *cascNode
	ca, cb leafCursor
	n, i   int
	keys   [mergeChunk]uint64
	recs   [mergeChunk]*Record
}

// refill produces the node's next chunk; false means the node (and its
// whole subtree) is exhausted. Exhausted nodes answer false idempotently.
func (nd *cascNode) refill(effTo uint64) bool {
	if nd.a == nil {
		return nd.refillBase(effTo)
	}
	a, b := nd.a, nd.b
	o := 0
	for o < mergeChunk {
		if a.i == a.n && !a.refill(effTo) {
			o = nd.drainNode(b, o, effTo)
			break
		}
		if b.i == b.n && !b.refill(effTo) {
			o = nd.drainNode(a, o, effTo)
			break
		}
		ai, bi := a.i, b.i
		m := mergeChunk - o
		if r := a.n - ai; r < m {
			m = r
		}
		if r := b.n - bi; r < m {
			m = r
		}
		// Branchless core: bo is 1 when a's key wins, mm its full mask.
		// Keys are unique across shards (disjoint hash partition), so
		// ties never happen and <= vs < is moot. The record is selected
		// through a two-slot array — an indexed load, not a conditional
		// branch, since this 50/50 "which side won" decision is exactly
		// the misprediction the cascade exists to avoid.
		var pr [2]*Record
		for e := 0; e < m; e++ {
			ka, kb := a.keys[ai], b.keys[bi]
			_, bo := bits.Sub64(ka, kb, 0)
			mm := uint64(0) - bo
			nd.keys[o] = kb ^ ((ka ^ kb) & mm)
			pr[0] = b.recs[bi]
			pr[1] = a.recs[ai]
			nd.recs[o] = pr[bo&1]
			o++
			ai += int(bo)
			bi += int(1 - bo)
		}
		a.i, b.i = ai, bi
	}
	nd.n, nd.i = o, 0
	return o > 0
}

// drainNode bulk-copies from child c after its sibling exhausted.
func (nd *cascNode) drainNode(c *cascNode, o int, effTo uint64) int {
	for {
		n := copy(nd.keys[o:], c.keys[c.i:c.n])
		copy(nd.recs[o:o+n], c.recs[c.i:c.i+n])
		c.i += n
		o += n
		if o == mergeChunk || !c.refill(effTo) {
			return o
		}
	}
}

// refillBase merges two shard leaf streams. Identical structure to the
// interior merge, but reading directly from leaf key/value arrays.
func (nd *cascNode) refillBase(effTo uint64) bool {
	o := 0
	ca, cb := &nd.ca, &nd.cb
	for o < mergeChunk {
		if ca.n == nil {
			o = nd.drainLeaves(cb, o, effTo)
			break
		}
		if cb.n == nil {
			o = nd.drainLeaves(ca, o, effTo)
			break
		}
		an, bn := ca.n, cb.n
		ai, bi := ca.i, cb.i
		m := mergeChunk - o
		if r := ca.lim - ai; r < m {
			m = r
		}
		if r := cb.lim - bi; r < m {
			m = r
		}
		var pr [2]*Record
		for e := 0; e < m; e++ {
			ka, kb := an.keys[ai], bn.keys[bi]
			_, bo := bits.Sub64(ka, kb, 0)
			mm := uint64(0) - bo
			nd.keys[o] = kb ^ ((ka ^ kb) & mm)
			pr[0] = bn.values[bi]
			pr[1] = an.values[ai]
			nd.recs[o] = pr[bo&1]
			o++
			ai += int(bo)
			bi += int(1 - bo)
		}
		ca.i, cb.i = ai, bi
		if ai == ca.lim {
			ca.advance(effTo)
		}
		if bi == cb.lim {
			cb.advance(effTo)
		}
	}
	nd.n, nd.i = o, 0
	return o > 0
}

// drainLeaves bulk-copies from leaf stream c after its sibling exhausted.
func (nd *cascNode) drainLeaves(c *leafCursor, o int, effTo uint64) int {
	for c.n != nil {
		n := copy(nd.keys[o:], c.n.keys[c.i:c.lim])
		copy(nd.recs[o:o+n], c.n.values[c.i:c.i+n])
		c.i += n
		o += n
		if c.i == c.lim {
			c.advance(effTo)
		}
		if o == mergeChunk {
			break
		}
	}
	return o
}

// cascRoot merges the cascade's two top streams, invoking fn per record in
// global key order. Returns false if fn stopped the scan early.
func cascRoot(a, b *cascNode, effTo uint64, fn func(key uint64, rec *Record) bool) bool {
	aok, bok := a.refill(effTo), b.refill(effTo)
	for aok && bok {
		m := a.n - a.i
		if r := b.n - b.i; r < m {
			m = r
		}
		x, y := a.i, b.i
		var pr [2]*Record
		for e := 0; e < m; e++ {
			ka, kb := a.keys[x], b.keys[y]
			_, bo := bits.Sub64(ka, kb, 0)
			mm := uint64(0) - bo
			kk := kb ^ ((ka ^ kb) & mm)
			pr[0] = b.recs[y]
			pr[1] = a.recs[x]
			rr := pr[bo&1]
			x += int(bo)
			y += int(1 - bo)
			if !fn(kk, rr) {
				a.i, b.i = x, y
				return false
			}
		}
		a.i, b.i = x, y
		if a.i == a.n {
			aok = a.refill(effTo)
		}
		if b.i == b.n {
			bok = b.refill(effTo)
		}
	}
	rest, rok := a, aok
	if bok {
		rest, rok = b, true
	}
	for rok {
		for i, n := rest.i, rest.n; i < n; i++ {
			if !fn(rest.keys[i], rest.recs[i]) {
				rest.i = i + 1
				return false
			}
		}
		rest.i = rest.n
		rok = rest.refill(effTo)
	}
	return true
}

// cascDrain drains a single node (the k == 2 cascade: one base stage, no
// interior), invoking fn per record.
func cascDrain(nd *cascNode, effTo uint64, fn func(key uint64, rec *Record) bool) bool {
	for nd.refill(effTo) {
		for i, n := nd.i, nd.n; i < n; i++ {
			if !fn(nd.keys[i], nd.recs[i]) {
				nd.i = i + 1
				return false
			}
		}
		nd.i = nd.n
	}
	return true
}

// mergeScratch is the pooled state of one ordered merged scan: the k-1
// cascade stages (k/2 base + the interior levels; the root consumes the
// final two streams directly).
type mergeScratch struct {
	nodes []cascNode
}

func newMergeScratch(k int) *mergeScratch {
	n := k - 2
	if n < 1 {
		n = 1
	}
	return &mergeScratch{nodes: make([]cascNode, n)}
}

// putMerge returns scratch to the pool with its leaf pointers cleared so
// a pooled scratch never pins tree nodes past the scan that used them.
// (Chunk record arrays are left as-is: they pin only this table's
// table-lifetime records; see file comment.)
func (t *Table) putMerge(m *mergeScratch) {
	for i := range m.nodes {
		m.nodes[i].ca.n = nil
		m.nodes[i].cb.n = nil
	}
	t.merge.Put(m)
}

// runlockAll releases every shard read lock taken by an ordered Scan.
func (t *Table) runlockAll() {
	for i := range t.shards {
		t.shards[i].mu.RUnlock()
	}
}

// Scan visits records with from ≤ key ≤ to in global key order until fn
// returns false. Shards partition the key space by hash, so ascending
// order within each shard plus the merge cascade (see file comment) yields
// ascending order overall. Records created concurrently may or may not be
// observed. All shard read locks are held for the duration of the scan —
// the same writer-blocking window the original table-wide lock imposed,
// split per shard. The steady path performs no allocations: merge state is
// pooled per table, and repeated scans of an unchanged table are served
// from the merged-scan view (view.go) without re-merging at all. A
// full-range scan that finds the view stale rebuilds it in the same pass;
// a narrow scan over a stale view falls back to the cascade (partially
// materializing would not pay for itself under interleaved writes).
func (t *Table) Scan(from, to uint64, fn func(key uint64, rec *Record) bool) {
	if len(t.shards) == 1 {
		s := &t.shards[0]
		t.obs.rlock(&s.mu)
		defer s.mu.RUnlock()
		s.t.scan(from, to, fn)
		return
	}
	for i := range t.shards {
		t.obs.rlock(&t.shards[i].mu)
	}
	defer t.runlockAll()
	v := t.view.Load()
	if v == nil || v.n != t.lenShardsHeld() {
		if from == 0 && to == ^uint64(0) {
			v = t.buildView()
		} else {
			m := t.merge.Get().(*mergeScratch)
			defer t.putMerge(m)
			t.mergeScan(m, from, to, fn)
			return
		}
	}
	v.emit(from, to, fn)
}

// mergeScan wires the cascade over the table's shards and runs it. Caller
// holds every shard read lock.
//
// The cascade reserves ^uint64(0) as its internal "stream exhausted"
// sentinel, so the merge itself runs with an effective upper bound of
// ^uint64(0)-1; a real record at key ^uint64(0) — necessarily the global
// maximum — is looked up directly and emitted last.
func (t *Table) mergeScan(m *mergeScratch, from, to uint64, fn func(key uint64, rec *Record) bool) {
	k := len(t.shards)
	effTo := to
	if to == ^uint64(0) {
		effTo = to - 1
	}
	nodes := m.nodes
	half := k / 2
	for i := 0; i < half; i++ {
		nd := &nodes[i]
		nd.a, nd.b = nil, nil
		nd.ca.init(t.shards[2*i].t, from, effTo)
		nd.cb.init(t.shards[2*i+1].t, from, effTo)
		nd.n, nd.i = 0, 0
	}
	prevStart, prevCount := 0, half
	idx := half
	for prevCount > 2 {
		cnt := prevCount / 2
		for j := 0; j < cnt; j++ {
			nd := &nodes[idx+j]
			nd.a = &nodes[prevStart+2*j]
			nd.b = &nodes[prevStart+2*j+1]
			nd.n, nd.i = 0, 0
		}
		prevStart, prevCount = idx, cnt
		idx += cnt
	}
	var completed bool
	if prevCount == 2 {
		completed = cascRoot(&nodes[prevStart], &nodes[prevStart+1], effTo, fn)
	} else {
		completed = cascDrain(&nodes[0], effTo, fn)
	}
	if completed && to == ^uint64(0) && from <= to {
		s := &t.shards[t.shardOf(^uint64(0))]
		if rec := s.t.get(^uint64(0)); rec != nil {
			fn(^uint64(0), rec)
		}
	}
}

// ScanAny visits records with from ≤ key ≤ to until fn returns false,
// with NO global ordering guarantee: shards are visited one after
// another, each in its own ascending key order, with zero merge cost.
// Aggregates that do not need key order (counts, sums, max-timestamp
// probes) should prefer it over Scan — it is the single-tree fast path
// repeated per shard. Unlike Scan, only one shard read lock is held at a
// time, so records created concurrently in a not-yet-visited shard may be
// observed while ones in an already-visited shard are not; the
// per-record visibility rules (version chains) are unaffected. The
// steady path performs no allocations.
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
