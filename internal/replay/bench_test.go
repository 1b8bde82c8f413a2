package replay

import (
	"fmt"
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/primary"
	"aets/internal/wal"
	"aets/internal/workload"
)

// BenchmarkReplayPipeline compares pipeline depths — 1, where epoch N+1 is
// dispatched only after N has published (the lowest depth; 0 means 1),
// against 2 and 4 — on three shapes: the paper's grouped TPC-C plan (many
// groups, two stages), a single-group plan (ungrouped TPLR, where epoch
// pipelining is the only available overlap), and BusTracker under the
// end-to-end benchmark's plan (53 groups, ~15 entries per group batch —
// the regime where per-batch fixed cost, not per-byte work, sets both
// txns/s and B/op). Each op replays the full pre-encoded stream into a
// fresh memtable; txns/s is the end-to-end replay throughput. allocs/op
// includes the unavoidable version-slab and memtable allocations — the
// recycled hand-off itself is pinned to zero by
// TestHandoffSteadyStateAllocs and TestBuffersSteadyStateAllocs.
func BenchmarkReplayPipeline(b *testing.B) {
	gen := workload.NewTPCC(4)
	tpcc := primary.New(gen, 1).GenerateEncoded(4000, 256)
	busPlan, bus := busTrackerShape(16)

	shapes := []struct {
		name     string
		plan     *grouping.Plan
		encs     []epoch.Encoded
		twoStage bool
	}{
		{"tpcc", buildTPCCPlan(gen, 1000), tpcc, true},
		{"single-group", grouping.SingleGroup(workload.TableIDs(gen.Tables())), tpcc, false},
		{"bustracker", busPlan, bus, true},
	}
	for _, sh := range shapes {
		for _, depth := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/depth=%d", sh.name, depth), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mt := memtable.New()
					e := New("AETS", mt, sh.plan, Config{
						Workers: 4, TwoStage: sh.twoStage, Pipeline: depth,
					})
					e.Start()
					for j := range sh.encs {
						if err := e.Feed(&sh.encs[j]); err != nil {
							b.Fatal(err)
						}
					}
					e.Drain()
					e.Stop()
					if err := e.Err(); err != nil {
						b.Fatal(err)
					}
				}
				txns := 0
				for j := range sh.encs {
					txns += sh.encs[j].TxnCount
				}
				b.ReportMetric(float64(txns)*float64(b.N)/b.Elapsed().Seconds(), "txns/s")
			})
		}
	}
}

// TestHandoffSteadyStateAllocs pins the zero-allocation claim for the TPLR
// phase-1→phase-2 hand-off: once the engine's pool is warm, a full
// acquire → deliver → take → release cycle of the slot ring allocates
// nothing — including the per-piece commit-latency histogram recording
// that now rides on the same path.
func TestHandoffSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomises sync.Pool caching; alloc counts are meaningless")
	}
	e := New("AETS", memtable.New(), grouping.SingleGroup([]wal.TableID{1}),
		Config{Workers: 2})
	const npieces, nentries = 64, 256
	e.releaseBatch(e.acquireBatch(npieces, nentries)) // warm the pool

	n := testing.AllocsPerRun(100, func() {
		bs := e.acquireBatch(npieces, nentries)
		for i := 0; i < npieces; i++ {
			d := &bs.deliveries[i]
			d.commitTS = int64(i + 1)
			d.cells = bs.cells[i*4 : i*4+4]
			bs.deliver(i, d)
		}
		for i := 0; i < npieces; i++ {
			if _, err := bs.take(i); err != nil {
				t.Fatal(err)
			}
			e.hCommit.Observe(time.Microsecond) // as the commit loop does per piece
		}
		e.releaseBatch(bs)
	})
	if n != 0 {
		t.Fatalf("hand-off cycle allocates %.1f objects/op, want 0", n)
	}
}
