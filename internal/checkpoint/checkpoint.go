// Package checkpoint persists and restores a backup's Memtable state. A
// replica that restarts without a checkpoint must re-replay the entire
// replicated log; with one, it resumes from the checkpoint's replay
// position (the SiloR lineage the paper's value log comes from pairs the
// log with exactly this kind of checkpointing).
//
// The format is a single self-describing stream:
//
//	magic "AETSCKPT" | version u16 | meta (3 varints + flags u8) | tableCount uvarint
//	per table:  tableID uvarint | recordCount uvarint
//	per record: key uvarint | versionCount uvarint
//	per version (oldest first): txnID uvarint | commitTS varint |
//	            deleted u8 | ncols uvarint | cols (id uvarint, len, bytes)
//	trailer: crc32 of everything before it (u32 LE)
//
// Versions are written oldest-first so restoration can rebuild chains with
// ordinary Appends.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"aets/internal/memtable"
	"aets/internal/wal"
)

var magic = []byte("AETSCKPT")

// Format version history:
//
//	1 — initial format (no fed-ness flag; a fresh checkpoint was
//	    indistinguishable from one cut after epoch 0)
//	2 — a flags byte after the meta varints, bit 0 = Fed
const version = 2

// ErrCorrupt is returned when a checkpoint fails structural or CRC checks.
var ErrCorrupt = errors.New("checkpoint: corrupt stream")

// Meta records the replay position the checkpoint corresponds to. A
// restarted backup asks the primary to re-ship epochs after LastEpochSeq.
type Meta struct {
	// LastEpochSeq is the sequence number of the last fully replayed epoch.
	// Meaningful only when Fed is true.
	LastEpochSeq uint64
	// LastTxnID is the last committed transaction ID contained.
	LastTxnID uint64
	// LastCommitTS is the visibility watermark: every version with a
	// commit timestamp at or below it is contained in the checkpoint.
	LastCommitTS int64
	// Fed reports whether the node had applied any epoch when the
	// checkpoint was cut. False marks a fresh node: without it, a restore
	// could not tell "never fed" (resume from epoch 0) apart from "last
	// applied epoch was 0" (resume from epoch 1), and the handshake would
	// permanently skip epoch 0.
	Fed bool
}

// NextEpochSeq is the replication resume cursor the checkpoint implies:
// 0 for a checkpoint of a never-fed node, LastEpochSeq+1 otherwise.
func (m Meta) NextEpochSeq() uint64 {
	if !m.Fed {
		return 0
	}
	return m.LastEpochSeq + 1
}

// FrozenFunc resolves the columnar base-segment image of (table, key), if
// one exists: the single version a Vacuum at the freeze watermark would
// have kept. Checkpoint writers on columnar nodes use it to cover history
// the compactor moved out of the record chains (colstore.Store.Lookup has
// exactly this signature).
type FrozenFunc func(table wal.TableID, key uint64) (txn uint64, ts int64, deleted bool, cols []wal.Column, ok bool)

// WriteWith serialises the Memtable and meta to w. The caller must ensure
// no concurrent replay is committing while the checkpoint is cut (quiesce
// at an epoch boundary — the natural point, since epochs commit
// atomically with respect to Drain).
//
// On columnar nodes frozen supplies the base-segment image of each record;
// row-wise nodes pass nil. A record whose chain was emptied by a
// freeze is emitted as that single image; a record frozen and then
// re-dirtied gets the image prepended as its oldest version (the chain
// alone would silently drop columns a read fills down from the segment).
// The image is skipped when the chain's oldest version already has its
// commit timestamp — the freeze-fallback case, where the image never left
// the chain. The format is unchanged: restore rebuilds a plain row-wise
// node, which re-freezes on its own schedule.
func WriteWith(w io.Writer, mt *memtable.Memtable, meta Meta, frozen FrozenFunc) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	if _, err := bw.Write(magic); err != nil {
		return err
	}
	var v16 [2]byte
	binary.LittleEndian.PutUint16(v16[:], version)
	bw.Write(v16[:])

	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) {
		n := binary.PutUvarint(scratch[:], x)
		bw.Write(scratch[:n])
	}
	putVarint := func(x int64) {
		n := binary.PutVarint(scratch[:], x)
		bw.Write(scratch[:n])
	}

	putUvarint(meta.LastEpochSeq)
	putUvarint(meta.LastTxnID)
	putVarint(meta.LastCommitTS)
	var flags byte
	if meta.Fed {
		flags |= 1
	}
	bw.WriteByte(flags)

	tables := mt.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i] < tables[j] })
	putUvarint(uint64(len(tables)))

	for _, tid := range tables {
		tab := mt.Table(tid)
		putUvarint(uint64(tid))
		putUvarint(uint64(tab.Len()))
		putVersion := func(txn uint64, ts int64, deleted bool, cols []wal.Column) {
			putUvarint(txn)
			putVarint(ts)
			if deleted {
				bw.WriteByte(1)
			} else {
				bw.WriteByte(0)
			}
			putUvarint(uint64(len(cols)))
			for _, c := range cols {
				putUvarint(uint64(c.ID))
				putUvarint(uint64(len(c.Value)))
				bw.Write(c.Value)
			}
		}
		tab.Scan(0, ^uint64(0), func(key uint64, rec *memtable.Record) bool {
			putUvarint(key)
			// Collect newest-first chain, emit oldest-first.
			var versions []*memtable.Version
			for v := rec.Latest(); v != nil; v = v.Next() {
				versions = append(versions, v)
			}
			// The frozen base image is the chain's history when it predates
			// the oldest in-chain version (or the whole row when the chain
			// is empty).
			var fTxn uint64
			var fTS int64
			var fDel, fOK bool
			var fCols []wal.Column
			if frozen != nil {
				fTxn, fTS, fDel, fCols, fOK = frozen(tid, key)
				if fOK && len(versions) > 0 && versions[len(versions)-1].CommitTS <= fTS {
					fOK = false // freeze fallback: the image is still in the chain
				}
			}
			n := len(versions)
			if fOK {
				n++
			}
			putUvarint(uint64(n))
			if fOK {
				putVersion(fTxn, fTS, fDel, fCols)
			}
			for i := len(versions) - 1; i >= 0; i-- {
				v := versions[i]
				putVersion(v.TxnID, v.CommitTS, v.Deleted, v.Columns)
			}
			return true
		})
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// Read restores a Memtable and its meta from r, verifying the trailer CRC.
// The stream is read fully into memory first: the CRC covers everything
// before the 4-byte trailer, and verifying it before parsing keeps corrupt
// inputs from building partial state.
func Read(r io.Reader) (*memtable.Memtable, Meta, error) {
	var meta Meta
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, meta, err
	}
	if len(data) < len(magic)+2+4 {
		return nil, meta, fmt.Errorf("%w: short stream", ErrCorrupt)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, meta, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	br := bytes.NewReader(body)

	head := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(head[:len(magic)]) != string(magic) {
		return nil, meta, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint16(head[len(magic):]); got != version {
		return nil, meta, fmt.Errorf("checkpoint: unsupported version %d", got)
	}

	rd := func() (uint64, error) { return binary.ReadUvarint(br) }
	rdS := func() (int64, error) { return binary.ReadVarint(br) }
	// rdCount decodes a count and bounds it by the bytes left to parse:
	// the stream is fully in memory and every counted item costs at least
	// one byte, so a larger count is structurally impossible. Allocations
	// sized from counts stay proportional to the input, not to whatever a
	// hostile (CRC-valid) prefix claims.
	rdCount := func() (uint64, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		if n > uint64(br.Len()) {
			return 0, fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrCorrupt, n, br.Len())
		}
		return n, nil
	}

	if meta.LastEpochSeq, err = rd(); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if meta.LastTxnID, err = rd(); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if meta.LastCommitTS, err = rdS(); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, meta, fmt.Errorf("%w: flags", ErrCorrupt)
	}
	if flags&^1 != 0 {
		return nil, meta, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	meta.Fed = flags&1 != 0

	mt := memtable.New()
	nTables, err := rdCount()
	if err != nil {
		return nil, meta, fmt.Errorf("%w: table count", ErrCorrupt)
	}
	for t := uint64(0); t < nTables; t++ {
		tid, err := rd()
		if err != nil {
			return nil, meta, fmt.Errorf("%w: table id", ErrCorrupt)
		}
		nRecs, err := rdCount()
		if err != nil {
			return nil, meta, fmt.Errorf("%w: record count", ErrCorrupt)
		}
		tab := mt.Table(wal.TableID(tid))
		for i := uint64(0); i < nRecs; i++ {
			key, err := rd()
			if err != nil {
				return nil, meta, fmt.Errorf("%w: key", ErrCorrupt)
			}
			rec := tab.GetOrCreate(key)
			nVers, err := rdCount()
			if err != nil {
				return nil, meta, fmt.Errorf("%w: version count", ErrCorrupt)
			}
			for v := uint64(0); v < nVers; v++ {
				ver := &memtable.Version{}
				if ver.TxnID, err = rd(); err != nil {
					return nil, meta, fmt.Errorf("%w: txn id", ErrCorrupt)
				}
				if ver.CommitTS, err = rdS(); err != nil {
					return nil, meta, fmt.Errorf("%w: commit ts", ErrCorrupt)
				}
				del, err := br.ReadByte()
				if err != nil {
					return nil, meta, fmt.Errorf("%w: deleted flag", ErrCorrupt)
				}
				ver.Deleted = del == 1
				nCols, err := rdCount()
				if err != nil {
					return nil, meta, fmt.Errorf("%w: column count", ErrCorrupt)
				}
				if nCols > 0 {
					// Grow incrementally from a small capacity instead of
					// trusting the decoded count with one big make: the
					// count is bounded above, but keeping the allocation
					// proportional to parsed data costs nothing.
					ver.Columns = make([]wal.Column, 0, min(nCols, 16))
					for c := uint64(0); c < nCols; c++ {
						id, err := rd()
						if err != nil {
							return nil, meta, fmt.Errorf("%w: column id", ErrCorrupt)
						}
						n, err := rdCount()
						if err != nil {
							return nil, meta, fmt.Errorf("%w: column length", ErrCorrupt)
						}
						buf := make([]byte, n)
						if _, err := io.ReadFull(br, buf); err != nil {
							return nil, meta, fmt.Errorf("%w: column value", ErrCorrupt)
						}
						ver.Columns = append(ver.Columns, wal.Column{ID: uint32(id), Value: buf})
					}
				}
				rec.Append(ver)
			}
		}
	}

	if br.Len() != 0 {
		return nil, meta, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, br.Len())
	}
	return mt, meta, nil
}
