// Package dispatch implements the log parser and dispatcher (paper §III-C,
// component ①). It scans an encoded epoch once, using header-only frame
// decoding, finds transaction boundaries from the BEGIN/COMMIT framing, and
// routes each DML frame to the replay batch of its table's group. A
// transaction updating tables from several groups is split into per-group
// pieces; the transaction's ID is pushed into the commit_order_queue of
// every group it touches, preserving the primary commit order per group.
package dispatch

import (
	"fmt"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/wal"
)

// Piece is one transaction's modifications restricted to one table group.
// Frames holds the encoded DML frames (sub-slices of the epoch buffer);
// replay workers decode them fully during the first TPLR phase. Columns is
// the total column count the frames' headers declare: with len(Frames) it
// is exactly the storage translate needs for the piece.
type Piece struct {
	TxnID    uint64
	CommitTS int64
	Frames   [][]byte
	Bytes    int
	Columns  int
}

// GroupBatch collects all pieces of one epoch routed to one group, plus the
// group's commit_order_queue for the epoch. Pieces[i] is the piece of
// CommitOrder[i]: dispatch appends both on the same COMMIT, so the pieces
// are stored in primary commit order and a committer can address "the next
// transaction to commit" by slot index.
type GroupBatch struct {
	Group       int
	Pieces      []Piece
	CommitOrder []uint64 // txn IDs in primary commit order
	Bytes       int
	Entries     int
	Columns     int
}

// Result is the dispatch output for one epoch.
type Result struct {
	PerGroup     []*GroupBatch // indexed by group ID; nil when untouched
	Txns         int
	Entries      int
	LastTxnID    uint64
	LastCommitTS int64
}

// Buffers recycles a dispatcher's output structures — the Result, the
// per-group batches with their Pieces/CommitOrder backing arrays, and the
// per-piece Frames arrays — across epochs, so a steady-state dispatch
// allocates nothing. One Buffers serves one epoch at a time; the pipelined
// replay engine keeps a pool of them, one per in-flight epoch, and returns
// each to the pool when its epoch is fully committed. The Result and
// batches returned by Dispatch alias the Buffers and die with the next
// Dispatch call on it.
type Buffers struct {
	res       Result
	batches   []GroupBatch
	pending   []Piece
	touched   []int
	frameFree [][][]byte // harvested Frames backing arrays
}

// NewBuffers returns an empty recyclable dispatch buffer set.
func NewBuffers() *Buffers { return &Buffers{} }

// reset prepares the buffers for one epoch over ngroups groups, harvesting
// every previous batch's Frames arrays for reuse.
func (b *Buffers) reset(ngroups int) {
	for gi := range b.batches {
		gb := &b.batches[gi]
		for i := range gb.Pieces {
			if f := gb.Pieces[i].Frames; f != nil {
				b.frameFree = append(b.frameFree, f[:0])
				gb.Pieces[i].Frames = nil
			}
		}
		gb.Pieces = gb.Pieces[:0]
		gb.CommitOrder = gb.CommitOrder[:0]
		gb.Bytes, gb.Entries, gb.Columns = 0, 0, 0
	}
	if cap(b.batches) < ngroups {
		b.batches = make([]GroupBatch, ngroups)
		b.pending = make([]Piece, ngroups)
		b.res.PerGroup = make([]*GroupBatch, ngroups)
	}
	b.batches = b.batches[:ngroups]
	b.pending = b.pending[:ngroups]
	for gi := range b.pending {
		// A pending piece's Frames array was either handed to a batch (nil,
		// harvested above) or abandoned by an error path; a nil Frames marks
		// the piece untouched by the next epoch's first transaction.
		b.pending[gi].Bytes, b.pending[gi].Columns = 0, 0
		if f := b.pending[gi].Frames; f != nil {
			b.frameFree = append(b.frameFree, f[:0])
			b.pending[gi].Frames = nil
		}
	}
	b.touched = b.touched[:0]
	b.res.PerGroup = b.res.PerGroup[:ngroups]
	for gi := range b.res.PerGroup {
		b.res.PerGroup[gi] = nil
	}
	b.res.Txns, b.res.Entries = 0, 0
}

// takeFrames pops a recycled frames array, or returns nil (append will
// then allocate a fresh one).
func (b *Buffers) takeFrames() [][]byte {
	n := len(b.frameFree)
	if n == 0 {
		return nil
	}
	f := b.frameFree[n-1]
	b.frameFree[n-1] = nil
	b.frameFree = b.frameFree[:n-1]
	return f
}

// Dispatch routes one encoded epoch according to plan, reusing b's backing
// arrays. It decodes only entry headers; frame payloads are passed through
// untouched. The per-batch Entries and Columns it counts on the way are
// what replay carves its arenas from. The Result is valid until the next
// Dispatch on b.
func (b *Buffers) Dispatch(enc *epoch.Encoded, plan *grouping.Plan) (*Result, error) {
	b.reset(len(plan.Groups))
	res := &b.res
	res.LastTxnID = enc.LastTxnID
	res.LastCommitTS = enc.LastCommitTS

	buf := enc.Buf
	// pending is indexed by group ID and reused across transactions. A
	// transaction is named only by its COMMIT, so a piece belongs to the
	// open transaction iff it holds frames: every piece the previous COMMIT
	// handed to a batch, and every piece reset found, has nil Frames. No
	// per-transaction clearing or map allocation is needed on this hot
	// path (dispatch must stay ≈1% of total replay work, Table II).
	inTxn := false
	for len(buf) > 0 {
		h, sz, err := wal.DecodeHeader(buf)
		if err != nil {
			return nil, err
		}
		frame := buf[:sz]
		buf = buf[sz:]

		switch h.Type {
		case wal.TypeBegin:
			if inTxn {
				return nil, fmt.Errorf("dispatch: epoch %d: BEGIN inside an open txn", enc.Seq)
			}
			inTxn = true
			b.touched = b.touched[:0]

		case wal.TypeCommit:
			if !inTxn {
				return nil, fmt.Errorf("dispatch: epoch %d: COMMIT %d without BEGIN", enc.Seq, h.TxnID)
			}
			for _, gi := range b.touched {
				p := &b.pending[gi]
				p.TxnID, p.CommitTS = h.TxnID, h.Timestamp
				gb := res.PerGroup[gi]
				if gb == nil {
					gb = &b.batches[gi]
					gb.Group = gi
					res.PerGroup[gi] = gb
				}
				gb.Pieces = append(gb.Pieces, *p)
				gb.CommitOrder = append(gb.CommitOrder, h.TxnID)
				gb.Bytes += p.Bytes
				gb.Entries += len(p.Frames)
				gb.Columns += p.Columns
				p.Frames = nil // hand ownership of the slice to the batch
				p.Bytes, p.Columns = 0, 0
			}
			res.Txns++
			if h.TxnID > res.LastTxnID {
				res.LastTxnID = h.TxnID
			}
			if h.Timestamp > res.LastCommitTS {
				res.LastCommitTS = h.Timestamp
			}
			inTxn = false

		case wal.TypeInsert, wal.TypeUpdate, wal.TypeDelete:
			if !inTxn {
				return nil, fmt.Errorf("dispatch: epoch %d: DML outside a txn", enc.Seq)
			}
			gi, ok := plan.GroupOf(h.Table)
			if !ok {
				return nil, fmt.Errorf("dispatch: table %d not covered by the group plan", h.Table)
			}
			p := &b.pending[gi]
			if p.Frames == nil {
				p.Frames = b.takeFrames()
				b.touched = append(b.touched, gi)
			}
			p.Frames = append(p.Frames, frame)
			p.Bytes += sz
			p.Columns += h.Columns
			res.Entries++

		default:
			return nil, fmt.Errorf("dispatch: invalid entry type %d", h.Type)
		}
	}
	if inTxn {
		return nil, fmt.Errorf("dispatch: epoch %d ends inside an open txn", enc.Seq)
	}
	return res, nil
}
