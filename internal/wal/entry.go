// Package wal defines the replication value-log format used by AETS.
//
// The format follows Figure 2 of the paper: every entry has a log type, a
// log sequence number (LSN), the ID of the transaction that produced it,
// its commit timestamp, and — for DML entries — the table it modifies, the
// row key, and the list of (column ID, new value) pairs. Fields a position
// implies are not written: the LSN is the entry's position in its epoch,
// and the transaction ID and timestamp are written once, on the COMMIT
// that closes the entries between it and their BEGIN. The log is a value
// log in the style of SiloR: it records physical after-images, never
// commands, so replaying it requires no re-execution and no rollback.
package wal

import "fmt"

// LogType discriminates transaction-framing entries from row operations.
type LogType uint8

// Log entry types. Begin and Commit bound the entries of one transaction;
// Insert, Update and Delete are the three row operations (paper §III-A).
const (
	TypeInvalid LogType = iota
	TypeBegin
	TypeCommit
	TypeInsert
	TypeUpdate
	TypeDelete
)

// String returns the mnemonic used in log dumps.
func (t LogType) String() string {
	switch t {
	case TypeBegin:
		return "BEGIN"
	case TypeCommit:
		return "COMMIT"
	case TypeInsert:
		return "INSERT"
	case TypeUpdate:
		return "UPDATE"
	case TypeDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("INVALID(%d)", uint8(t))
	}
}

// IsDML reports whether the entry type is a row operation (as opposed to
// transaction framing).
func (t LogType) IsDML() bool {
	return t == TypeInsert || t == TypeUpdate || t == TypeDelete
}

// TableID identifies a database table on both primary and backup.
type TableID uint32

// Column is one (column ID, new value) pair of an entry's log data.
type Column struct {
	ID    uint32
	Value []byte
}

// Entry is a single replication log entry.
//
// TxnID is monotonically increasing on the primary and represents the commit
// order of transactions; Timestamp is the transaction's commit timestamp in
// nanoseconds. For framing entries (Begin/Commit) the Table, RowKey
// and Columns fields are zero. LSN is never encoded, and TxnID and
// Timestamp only on a COMMIT: DecodeStream numbers a stream from its
// epoch's first LSN and fills the other two in from each transaction's
// COMMIT, and a single-frame Decode leaves them 0.
type Entry struct {
	Type      LogType
	LSN       uint64
	TxnID     uint64
	Timestamp int64
	Table     TableID
	RowKey    uint64
	Columns   []Column

	// WriteSeq is the number of committed writes this row had received on
	// the primary before this entry. It is the compressed equivalent of the
	// before-image that value logs such as ATR's carry: comparing the
	// record's current state against the before-image answers exactly
	// "have all my predecessors been applied?", and so does comparing the
	// record's installed-version count against WriteSeq. (A writer's TxnID
	// is not enough: a transaction may write the same row twice, and a
	// successor must not be admitted between those two writes.) AETS and
	// C5 ignore it; the ATR baseline's operation sequence check depends on
	// it.
	WriteSeq uint64
}

// Size returns the approximate in-memory size of the entry in bytes. The
// adaptive thread allocator uses it as the per-group un-replayed log size
// n_gi (paper §IV-B).
func (e *Entry) Size() int {
	n := 1 + 8 + 8 + 8 + 4 + 8 // fixed header fields
	for _, c := range e.Columns {
		n += 4 + len(c.Value)
	}
	return n
}

// Validate checks structural well-formedness of a single entry.
func (e *Entry) Validate() error {
	switch e.Type {
	case TypeBegin, TypeCommit:
		if len(e.Columns) != 0 {
			return fmt.Errorf("wal: %s entry carries %d columns", e.Type, len(e.Columns))
		}
	case TypeInsert, TypeUpdate:
		if len(e.Columns) == 0 {
			return fmt.Errorf("wal: %s entry has no columns", e.Type)
		}
	case TypeDelete:
		// A delete carries only the row key.
	default:
		return fmt.Errorf("wal: invalid log type %d", e.Type)
	}
	return nil
}
