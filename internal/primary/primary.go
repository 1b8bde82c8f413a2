// Package primary simulates the primary database node: it executes a
// benchmark workload's transactions, assigns monotonically increasing
// transaction IDs and commit timestamps, counts each row's committed writes
// (the before-image witness carried in the value log), batches committed
// transactions into epochs and encodes them into the replication wire
// format the backup replayers consume.
//
// The paper uses MySQL 8.0 as the primary; the replay framework only ever
// observes the value-log stream, so this simulator is a drop-in source with
// the same framing, ordering and content properties (see DESIGN.md §2).
package primary

import (
	"fmt"
	"math/rand"
	"sync"

	"aets/internal/epoch"
	"aets/internal/wal"
	"aets/internal/workload"
)

// rowKeyBits is the row key's width in a packed row reference: table ID
// above, row key below, so one integer names a row across tables and the
// write count costs one fast-path hash. Every workload's key space is far
// inside it.
const rowKeyBits = 40

// Primary is the primary-node simulator. Not safe for concurrent use; the
// primary serialises transactions in commit order by definition.
type Primary struct {
	gen workload.Generator
	rng *rand.Rand

	// Clock returns the commit timestamp of the next transaction. The
	// default is a virtual clock advancing 1µs per transaction, which keeps
	// traces deterministic; timestamps only ever need to be monotone and
	// shared between log entries and query snapshots.
	Clock func() int64

	nextTxnID uint64
	lastTS    int64
	rowSlot   map[uint64]uint32 // packed row reference → index into writes
	writes    []uint64          // committed writes per row, by slot
	writeBuf  []workload.Write

	mu sync.Mutex // guards LastCommitTS readers against the generator
}

// New returns a Primary running the given workload with a deterministic
// rng seed.
func New(gen workload.Generator, seed int64) *Primary {
	p := &Primary{
		gen:     gen,
		rng:     rand.New(rand.NewSource(seed)),
		rowSlot: make(map[uint64]uint32),
	}
	p.Clock = func() int64 {
		return int64(p.nextTxnID) * 1000 // 1µs virtual tick per txn
	}
	return p
}

// NextTxn executes one transaction and returns its committed value-log
// form.
func (p *Primary) NextTxn() wal.Txn {
	p.writeBuf = p.gen.NextTxn(p.rng, p.writeBuf[:0])
	p.nextTxnID++
	id := p.nextTxnID
	ts := p.Clock()
	if ts <= p.lastTS {
		ts = p.lastTS + 1
	}

	t := wal.Txn{ID: id, CommitTS: ts, Entries: make([]wal.Entry, 0, len(p.writeBuf))}
	for _, w := range p.writeBuf {
		s := p.slotOf(w.Table, w.Key)
		t.Entries = append(t.Entries, wal.Entry{
			Type:      w.Op,
			TxnID:     id,
			Timestamp: ts,
			Table:     w.Table,
			RowKey:    w.Key,
			Columns:   w.Cols,
			WriteSeq:  p.writes[s],
		})
		p.writes[s]++
	}
	p.mu.Lock()
	p.lastTS = ts
	p.mu.Unlock()
	return t
}

// slotOf returns the row's slot in writes, giving a row seen for the first
// time a fresh one.
func (p *Primary) slotOf(t wal.TableID, k uint64) uint32 {
	if uint64(t) >= 1<<(64-rowKeyBits) || k >= 1<<rowKeyBits {
		panic(fmt.Sprintf("primary: row %d of table %d outside the packed row reference", k, t))
	}
	ref := uint64(t)<<rowKeyBits | k
	s, ok := p.rowSlot[ref]
	if !ok {
		s = uint32(len(p.writes))
		p.rowSlot[ref] = s
		p.writes = append(p.writes, 0)
	}
	return s
}

// LastCommitTS returns the commit timestamp of the most recent transaction
// (the "latest snapshot timestamp value from the primary" a query fetches
// in Algorithm 3). Safe to call concurrently with generation.
func (p *Primary) LastCommitTS() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastTS
}

// GenerateTxns executes n transactions.
func (p *Primary) GenerateTxns(n int) []wal.Txn {
	out := make([]wal.Txn, n)
	for i := range out {
		out[i] = p.NextTxn()
	}
	return out
}

// GenerateEpochs executes totalTxns transactions and batches them into
// epochs of epochSize transactions.
func (p *Primary) GenerateEpochs(totalTxns, epochSize int) []*epoch.Epoch {
	return epoch.MustSplit(p.GenerateTxns(totalTxns), epochSize)
}

// GenerateEncoded executes totalTxns transactions and returns the encoded
// replication stream, one Encoded per epoch.
func (p *Primary) GenerateEncoded(totalTxns, epochSize int) []epoch.Encoded {
	return epoch.EncodeAll(p.GenerateEpochs(totalTxns, epochSize))
}
