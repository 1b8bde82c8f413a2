package replay

import (
	"runtime"
	"testing"
	"unsafe"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/wal"
	"aets/internal/workload"
)

// busTrackerShape is the regime the end-to-end benchmark's
// bustracker_steady runs replay in: 3-entry transactions over 65 tables,
// cut into 256-txn epochs and routed by the bench's own plan (53 groups),
// so a group batch is ~15 entries and per-batch fixed cost is everything.
func busTrackerShape(epochs int) (*grouping.Plan, []epoch.Encoded) {
	gen := workload.NewBusTracker()
	plan := grouping.Build(gen.Rates(0), workload.TableIDs(gen.Tables()),
		grouping.Options{Eps: 0.3, MinPts: 2})
	return plan, primary.New(gen, 1).GenerateEncoded(epochs*256, 256)
}

// TestReplayMemoryProportionalToEpoch pins what replay allocates to what
// it was fed: over 100 BusTracker-shaped epochs, in the bench's engine
// configuration and with no vacuum to hand anything back, every byte
// allocated in the process — versions, column headers, new records and
// index nodes, per-epoch scheduling — stays within 24× the epoch buffers'
// bytes. Arenas with floors unrelated to the batch (256 versions, 1 024
// column headers and a 64 KiB value chunk per group batch) measured ~130×.
func TestReplayMemoryProportionalToEpoch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not replay's")
	}
	const warm, measured = 20, 100
	plan, encs := busTrackerShape(warm + measured)
	e := New("AETS", memtable.New(), plan, Config{
		TwoStage: true, Pipeline: 2, Registry: metrics.NewRegistry(),
	})
	e.Start()
	defer e.Stop()
	for i := range encs[:warm] {
		feed(t, e, &encs[i])
	}
	e.Drain()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fed := 0
	for i := range encs[warm:] {
		feed(t, e, &encs[warm+i])
		fed += len(encs[warm+i].Buf)
	}
	e.Drain()
	runtime.ReadMemStats(&after)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d epochs: %d B fed, %d B allocated (%.1f×)", measured, fed, alloc, float64(alloc)/float64(fed))
	if alloc > 24*fed {
		t.Fatalf("replay allocated %d B for %d B of epochs (%.1f×, want ≤ 24×)",
			alloc, fed, float64(alloc)/float64(fed))
	}
}

// TestOneEntryBatchCarvesExactly: the smallest batch there is — one
// insert of three columns — takes one Version and three Column headers
// from its arena, and its values are the epoch buffer's own bytes.
func TestOneEntryBatchCarvesExactly(t *testing.T) {
	txn := wal.Txn{ID: 1, CommitTS: 10, Entries: []wal.Entry{{
		Type: wal.TypeInsert, TxnID: 1, Table: 7, RowKey: 42,
		Columns: []wal.Column{{ID: 1, Value: []byte("a")}, {ID: 2, Value: []byte("bb")}, {ID: 3, Value: []byte("ccc")}},
	}}}
	enc := epoch.EncodeAll(epoch.MustSplit([]wal.Txn{txn}, 1))[0]
	reg := metrics.NewRegistry()
	mt := memtable.New()
	e := New("AETS", mt, grouping.SingleGroup([]wal.TableID{7}), Config{Registry: reg})
	e.Start()
	defer e.Stop()
	feed(t, e, &enc)
	e.Drain()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	if got, want := reg.Counter("replay_arena_bytes_total").Load(), versionBytes+3*columnBytes; got != want {
		t.Fatalf("replay_arena_bytes_total = %d, want %d (1 version + 3 column headers)", got, want)
	}
	v := mt.Table(7).Get(42).Latest()
	if len(v.Columns) != 3 || cap(v.Columns) != 3 {
		t.Fatalf("version holds %d/%d column headers, want exactly 3", len(v.Columns), cap(v.Columns))
	}
	lo := uintptr(unsafe.Pointer(&enc.Buf[0]))
	for _, c := range v.Columns {
		if p := uintptr(unsafe.Pointer(&c.Value[0])); p < lo || p >= lo+uintptr(len(enc.Buf)) {
			t.Fatalf("column %d value %q is a copy, not the epoch buffer's bytes", c.ID, c.Value)
		}
	}
}
