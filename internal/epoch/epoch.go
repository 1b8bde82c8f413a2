// Package epoch batches committed transactions into fixed-size,
// non-overlapping epochs (paper §III-B). Epochs are segmented on transaction
// boundaries — a transaction's entries never straddle two epochs — and are
// replicated and replayed strictly in order.
package epoch

import (
	"fmt"

	"aets/internal/wal"
)

// DefaultSize is the paper's empirically chosen epoch size (§VI-E): the
// number of committed transactions batched into one epoch.
const DefaultSize = 2048

// Epoch is one replication unit: a consecutive run of committed
// transactions in primary commit order.
type Epoch struct {
	Seq  uint64
	Txns []wal.Txn
}

// FirstTxnID returns the smallest transaction ID in the epoch.
func (e *Epoch) FirstTxnID() uint64 {
	if len(e.Txns) == 0 {
		return 0
	}
	return e.Txns[0].ID
}

// LastTxnID returns the largest transaction ID in the epoch.
func (e *Epoch) LastTxnID() uint64 {
	if len(e.Txns) == 0 {
		return 0
	}
	return e.Txns[len(e.Txns)-1].ID
}

// Entries returns the total number of DML entries in the epoch.
func (e *Epoch) Entries() int {
	n := 0
	for i := range e.Txns {
		n += len(e.Txns[i].Entries)
	}
	return n
}

// Batcher accumulates committed transactions and cuts an epoch every `size`
// transactions. The zero value is not usable; use NewBatcher.
type Batcher struct {
	size    int
	nextSeq uint64
	pending []wal.Txn
	lastID  uint64
}

// NewBatcher returns a Batcher cutting epochs of the given transaction
// count. size must be ≥ 1.
func NewBatcher(size int) *Batcher {
	if size < 1 {
		panic("epoch: batcher size must be >= 1")
	}
	return &Batcher{size: size}
}

// Add appends one committed transaction. If the pending batch reaches the
// epoch size, the completed epoch is returned; otherwise Add returns nil.
// Transactions must arrive in strictly increasing ID order.
func (b *Batcher) Add(t wal.Txn) (*Epoch, error) {
	if t.ID <= b.lastID {
		return nil, fmt.Errorf("epoch: txn %d arrives after txn %d", t.ID, b.lastID)
	}
	b.lastID = t.ID
	b.pending = append(b.pending, t)
	if len(b.pending) < b.size {
		return nil, nil
	}
	return b.cut(), nil
}

// Flush returns the partially filled pending epoch, or nil if none. The
// primary calls it when a load phase ends or on shutdown.
func (b *Batcher) Flush() *Epoch {
	if len(b.pending) == 0 {
		return nil
	}
	return b.cut()
}

func (b *Batcher) cut() *Epoch {
	e := &Epoch{Seq: b.nextSeq, Txns: b.pending}
	b.nextSeq++
	b.pending = nil
	return e
}

// Split cuts an already-assembled transaction list into epochs of the given
// size. It is the batch analogue of feeding every txn through a Batcher and
// flushing, and is used by benchmark drivers that pre-generate workloads.
// The input must be in strictly increasing ID order; a violation is
// reported as an error.
func Split(txns []wal.Txn, size int) ([]*Epoch, error) {
	b := NewBatcher(size)
	var out []*Epoch
	for _, t := range txns {
		e, err := b.Add(t)
		if err != nil {
			return nil, err
		}
		if e != nil {
			out = append(out, e)
		}
	}
	if e := b.Flush(); e != nil {
		out = append(out, e)
	}
	return out, nil
}

// MustSplit is Split for inputs that are ID-ordered by construction
// (generated workloads, test fixtures); it panics on a misordered
// input, mirroring regexp.MustCompile's contract.
func MustSplit(txns []wal.Txn, size int) []*Epoch {
	out, err := Split(txns, size)
	if err != nil {
		panic(err)
	}
	return out
}
