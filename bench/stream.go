package main

import (
	"fmt"
	"time"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/primary"
	"aets/internal/ship"
	"aets/internal/wal"
	"aets/internal/workload"
)

// target is the row a probe reads: the last write of one transaction.
// At that transaction's commit ts it is the newest version of its key,
// so a probe admitted at that ts must see exactly it.
type target struct {
	table   wal.TableID
	key     uint64
	deleted bool
}

// tableShape is what the analyst needs to know about a table to phrase
// range scans and sums, sampled from the stream's probe targets.
type tableShape struct {
	keyLo, keyHi uint64
	sumCol       uint32
}

// stream is the pre-generated replication stream of one run plus the
// compact per-transaction index the driver needs while it runs. The
// program under test only ever sees encs.
type stream struct {
	gen    workload.Generator
	plan   *grouping.Plan
	tables []wal.TableID // whole catalogue
	hot    []wal.TableID
	schema uint64

	encs     []epoch.Encoded
	firstTxn []int // firstTxn[i] = stream index of epoch i's first txn; one extra entry = total
	txnTS    []int64
	targets  []target
	shapes   map[wal.TableID]*tableShape

	genDur     time.Duration
	refDigests map[int]uint64 // serial-reference digest of epochs [0,n), by n
}

func (s *stream) txns() int { return len(s.txnTS) }

// generateStream runs the primary simulator on its default virtual clock
// and indexes the result.
func generateStream(p Properties, seed int64, epochs int) (*stream, error) {
	gen, plan := generators[p.Generator](p.Warehouses)
	s := &stream{
		gen: gen, plan: plan,
		tables: workload.TableIDs(gen.Tables()),
		hot:    workload.HotTables(gen.Tables()),
		shapes: map[wal.TableID]*tableShape{}, refDigests: map[int]uint64{},
	}
	s.schema = ship.SchemaHash(gen.Name(), s.tables)
	t0 := time.Now()
	s.encs = primary.New(gen, seed).GenerateEncoded(epochs*p.EpochSize, p.EpochSize)
	s.genDur = time.Since(t0)
	return s, s.index()
}

// index walks every epoch once with header-only decoding, recording each
// transaction's commit ts and fully decoding only its last DML frame.
func (s *stream) index() error {
	for i := range s.encs {
		enc := &s.encs[i]
		if enc.Seq != uint64(i) {
			return fmt.Errorf("stream: epoch %d carries seq %d", i, enc.Seq)
		}
		s.firstTxn = append(s.firstTxn, len(s.txnTS))
		var lastDML []byte
		for buf := enc.Buf; len(buf) > 0; {
			h, n, err := wal.DecodeHeader(buf)
			if err != nil {
				return fmt.Errorf("stream: epoch %d: %w", i, err)
			}
			switch {
			case h.Type.IsDML():
				lastDML = buf[:n]
			case h.Type == wal.TypeCommit:
				if lastDML == nil {
					return fmt.Errorf("stream: txn %d has no DML entry", h.TxnID)
				}
				e, _, err := wal.Decode(lastDML)
				if err != nil {
					return fmt.Errorf("stream: epoch %d: %w", i, err)
				}
				s.txnTS = append(s.txnTS, h.Timestamp)
				s.targets = append(s.targets, target{e.Table, e.RowKey, e.Type == wal.TypeDelete})
				s.sample(&e)
				lastDML = nil
			}
			buf = buf[n:]
		}
		if got := len(s.txnTS) - s.firstTxn[i]; got != enc.TxnCount || s.txnTS[len(s.txnTS)-1] != enc.LastCommitTS {
			return fmt.Errorf("stream: epoch %d indexes %d txns, header says %d", i, got, enc.TxnCount)
		}
	}
	s.firstTxn = append(s.firstTxn, len(s.txnTS))
	return nil
}

func (s *stream) sample(e *wal.Entry) {
	sh := s.shapes[e.Table]
	if sh == nil {
		sh = &tableShape{keyLo: e.RowKey, keyHi: e.RowKey}
		s.shapes[e.Table] = sh
	}
	sh.keyLo, sh.keyHi = min(sh.keyLo, e.RowKey), max(sh.keyHi, e.RowKey)
	if sh.sumCol == 0 {
		for _, c := range e.Columns {
			if len(c.Value) == 8 {
				sh.sumCol = c.ID
				break
			}
		}
	}
}
