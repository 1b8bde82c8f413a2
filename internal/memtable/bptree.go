package memtable

// bptree.go implements the in-memory B+Tree the paper uses as the storage
// engine of the backup node (§VI-A1: "The Memtable utilizes a B+Tree as the
// in-memory storage engine"). Keys are uint64 row keys; values are *Record.
//
// The tree itself is not internally synchronised: Table wraps it with a
// read/write mutex, while Record handles version-level concurrency.

const (
	// degree is the maximum number of children of an internal node. Leaves
	// hold up to degree-1 keys. 64 keeps nodes around a cache line multiple
	// without making splits too frequent.
	degree    = 64
	maxKeys   = degree - 1
	minKeys   = maxKeys / 2 // applies to all nodes except the root
	leafSplit = (maxKeys + 1) / 2
)

type node struct {
	// keys holds maxKeys slots; n of them are in use.
	keys [maxKeys]uint64
	n    int

	// Internal nodes use children (n+1 in use); leaves use values (n in
	// use) and next for ordered scans.
	children [degree]*node
	values   [maxKeys]*Record
	leaf     bool
	next     *node
}

// tree is a B+Tree mapping row keys to records.
type tree struct {
	root *node
	size int

	// recs is the current record slab: records are carved from chunks
	// instead of being allocated one by one, because record creation is
	// the translate path's dominant allocation (one per new row key) and
	// records live exactly as long as their tree. A full chunk is simply
	// replaced — records already handed out keep pointing into it.
	recs []Record
}

func newTree() *tree {
	return &tree{root: &node{leaf: true}}
}

// recSlabMin/Max bound the record chunk size: chunks double as the tree
// grows so a large table settles on few big allocations, capped so one
// chunk stays well under the large-object threshold.
const (
	recSlabMin = 64
	recSlabMax = 8192
)

// newRecord carves a record from the slab. Caller holds the shard write
// lock.
func (t *tree) newRecord(key uint64) *Record {
	if len(t.recs) == cap(t.recs) {
		c := 2 * cap(t.recs)
		if c < recSlabMin {
			c = recSlabMin
		}
		if c > recSlabMax {
			c = recSlabMax
		}
		t.recs = make([]Record, 0, c)
	}
	t.recs = append(t.recs, Record{Key: key})
	return &t.recs[len(t.recs)-1]
}

// get returns the record for key, or nil.
func (t *tree) get(key uint64) *Record {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key)]
	}
	i, ok := n.search(key)
	if !ok {
		return nil
	}
	return n.values[i]
}

// getOrCreate returns the record for key, inserting a fresh empty record if
// none exists. created reports whether an insert happened.
func (t *tree) getOrCreate(key uint64) (rec *Record, created bool) {
	if r := t.get(key); r != nil {
		return r, false
	}
	rec = t.newRecord(key)
	t.insert(key, rec)
	return rec, true
}

// insert adds key→rec. The caller must ensure key is absent.
func (t *tree) insert(key uint64, rec *Record) {
	if t.root.n == maxKeys {
		old := t.root
		t.root = &node{}
		t.root.children[0] = old
		t.root.splitChild(0)
	}
	t.root.insertNonFull(key, rec)
	t.size++
}

// scan visits records with from ≤ key ≤ to in ascending key order until fn
// returns false. It reports whether the range was exhausted (false means
// fn stopped the scan early) so multi-shard callers can propagate early
// stop without a wrapper closure.
func (t *tree) scan(from, to uint64, fn func(key uint64, rec *Record) bool) bool {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(from)]
	}
	for n != nil {
		for i := 0; i < n.n; i++ {
			k := n.keys[i]
			if k < from {
				continue
			}
			if k > to {
				return true
			}
			if !fn(k, n.values[i]) {
				return false
			}
		}
		n = n.next
	}
	return true
}

// len returns the number of records in the tree.
func (t *tree) len() int { return t.size }

// appendRange appends the keys in [from, to] and their records to keys and
// recs in ascending order, copying each leaf's in-range window whole.
func (t *tree) appendRange(from, to uint64, keys []uint64, recs []*Record) ([]uint64, []*Record) {
	if from > to {
		return keys, recs
	}
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(from)]
	}
	i, _ := n.search(from)
	for ; n != nil; n, i = n.next, 0 {
		j, last := n.n, false
		if j > 0 && n.keys[j-1] > to { // so to+1 cannot wrap
			j, _ = n.search(to + 1)
			last = true
		}
		keys = append(keys, n.keys[i:j]...)
		recs = append(recs, n.values[i:j]...)
		if last {
			break
		}
	}
	return keys, recs
}

// childIndex returns the index of the child subtree that may contain key.
// Internal-node semantics: child i holds keys < keys[i]; the last child
// holds keys ≥ keys[n-1].
func (n *node) childIndex(key uint64) int {
	lo, hi := 0, n.n
	for lo < hi {
		mid := (lo + hi) / 2
		if key < n.keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// search finds key among the node's keys.
func (n *node) search(key uint64) (int, bool) {
	lo, hi := 0, n.n
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n.n && n.keys[lo] == key
}

// splitChild splits the full child at index i, promoting its separator key.
func (n *node) splitChild(i int) {
	child := n.children[i]
	right := &node{leaf: child.leaf}

	var sep uint64
	if child.leaf {
		// Leaf split: right keeps the upper half including the separator;
		// the separator is copied (not moved) up, B+Tree style.
		right.n = child.n - leafSplit
		copy(right.keys[:], child.keys[leafSplit:child.n])
		copy(right.values[:], child.values[leafSplit:child.n])
		child.n = leafSplit
		right.next = child.next
		child.next = right
		sep = right.keys[0]
	} else {
		mid := child.n / 2
		sep = child.keys[mid]
		right.n = child.n - mid - 1
		copy(right.keys[:], child.keys[mid+1:child.n])
		copy(right.children[:], child.children[mid+1:child.n+1])
		child.n = mid
	}

	// Shift n's keys/children right to make room at i.
	copy(n.keys[i+1:n.n+1], n.keys[i:n.n])
	copy(n.children[i+2:n.n+2], n.children[i+1:n.n+1])
	n.keys[i] = sep
	n.children[i+1] = right
	n.n++
}

// insertNonFull inserts into a node known to have spare capacity.
func (n *node) insertNonFull(key uint64, rec *Record) {
	for !n.leaf {
		i := n.childIndex(key)
		if n.children[i].n == maxKeys {
			n.splitChild(i)
			if key >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
	i, _ := n.search(key)
	copy(n.keys[i+1:n.n+1], n.keys[i:n.n])
	copy(n.values[i+1:n.n+1], n.values[i:n.n])
	n.keys[i] = key
	n.values[i] = rec
	n.n++
}

// checkInvariants walks the tree verifying ordering and occupancy rules.
// Used only by tests; returns a description of the first violation found.
func (t *tree) checkInvariants() string {
	var walk func(n *node, lo, hi uint64, root bool) string
	walk = func(n *node, lo, hi uint64, root bool) string {
		if !root && n.n < minKeys && !n.leaf {
			return "internal node underfull"
		}
		for i := 1; i < n.n; i++ {
			if n.keys[i-1] >= n.keys[i] {
				return "keys out of order"
			}
		}
		for i := 0; i < n.n; i++ {
			if n.keys[i] < lo || n.keys[i] > hi {
				return "key outside subtree bounds"
			}
		}
		if n.leaf {
			return ""
		}
		for i := 0; i <= n.n; i++ {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < n.n {
				if n.keys[i] == 0 {
					return "zero separator"
				}
				chi = n.keys[i] - 1
			}
			if s := walk(n.children[i], clo, chi, false); s != "" {
				return s
			}
		}
		return ""
	}
	return walk(t.root, 0, ^uint64(0), true)
}
