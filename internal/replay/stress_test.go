package replay

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/wal"
)

// TestVisibilityInvariantStress hammers the scheduler at depth 3 with
// concurrent snapshot readers while the feeder interleaves plan swaps and
// heartbeat epochs, and checks the two visibility invariants the paper's
// Algorithm 3 promises:
//
//  1. After WaitVisible(qts) returns for a set of tables, every version
//     with CommitTS ≤ qts in those tables is installed — verified exactly,
//     because the workload is deterministic: transaction j writes row
//     ((j-1) mod K)+1 of both tables with commit timestamp j*10, so the
//     version a reader must see at qts is computable in closed form.
//  2. Within the active plan, a hot group's tg_cmt_ts never trails a cold
//     group's: hot data publishes no later than cold in every epoch.
//
// Run under -race this also serves as the scheduler's concurrency smoke
// test: the per-group committers, the hot-before-cold wait, the in-order
// publisher, plan swaps that retire and restart the committers, and
// heartbeat publication all race against readers here.
func TestVisibilityInvariantStress(t *testing.T) {
	const (
		hotT  = wal.TableID(1)
		coldT = wal.TableID(2)
		nTxns = 2400
		nRows = 16
		eSize = 32
	)
	mkPlan := func(rate float64) *grouping.Plan {
		return grouping.Build(map[wal.TableID]float64{hotT: rate},
			[]wal.TableID{hotT, coldT}, grouping.Options{PerTable: true})
	}

	// Every transaction touches BOTH tables: that is what makes invariant 2
	// observable (a group untouched by an epoch legitimately publishes the
	// epoch end early, which would let a cold singleton race ahead of hot).
	txns := make([]wal.Txn, nTxns)
	for i := range txns {
		j := uint64(i + 1)
		row := uint64(i%nRows) + 1
		val := make([]byte, 8)
		binary.BigEndian.PutUint64(val, j)
		txns[i] = wal.Txn{ID: j, CommitTS: int64(j) * 10, Entries: []wal.Entry{
			{Type: wal.TypeUpdate, TxnID: j, Table: hotT, RowKey: row,
				Columns: []wal.Column{{ID: 1, Value: val}}},
			{Type: wal.TypeUpdate, TxnID: j, Table: coldT, RowKey: row,
				Columns: []wal.Column{{ID: 1, Value: val}}},
		}}
	}

	mt := memtable.New()
	e := New("AETS", mt, mkPlan(1000), Config{Workers: 4, TwoStage: true, Pipeline: 3})
	e.Start()
	defer e.Stop()

	var (
		shippedMu sync.Mutex
		shippedTS int64
	)
	shipped := func() int64 {
		shippedMu.Lock()
		defer shippedMu.Unlock()
		return shippedTS
	}

	stop := make(chan struct{})
	violations := make(chan string, 4)

	// Invariant 2 sampler: cold first, then hot. Both timestamps are
	// monotone, so hot read after cold must be >= the cold sample unless
	// hot actually published later than cold at some instant.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := e.GroupTS(coldT)
			h := e.GroupTS(hotT)
			if h < c {
				select {
				case violations <- fmt.Sprintf("hot tg_cmt_ts %d < cold %d", h, c):
				default:
				}
				return
			}
			runtime.Gosched()
		}
	}()

	// Invariant 1 checkers: WaitVisible at a random already-shipped qts,
	// then verify the exact newest-visible version of a few rows in both
	// tables against the closed-form expectation.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := shipped()
				if s < 10 {
					runtime.Gosched()
					continue
				}
				committed := s / 10 // transactions with CommitTS <= s
				qts := (rng.Int63n(committed) + 1) * 10
				e.WaitVisible(qts, []wal.TableID{hotT, coldT})
				n := qts / 10 // txns that must be fully visible
				for probe := 0; probe < 3; probe++ {
					idx := rng.Int63n(nRows) // 0-based row index
					if n < idx+1 {
						continue // row not written yet at qts
					}
					// Latest txn j <= n writing this row: j ≡ idx+1 (mod K).
					j := idx + 1 + nRows*((n-1-idx)/nRows)
					for _, tbl := range []wal.TableID{hotT, coldT} {
						rec := mt.Table(tbl).Get(uint64(idx) + 1)
						if rec == nil {
							select {
							case violations <- fmt.Sprintf("table %d row %d missing at qts %d", tbl, idx+1, qts):
							default:
							}
							return
						}
						v := rec.Visible(qts)
						if v == nil || v.CommitTS != j*10 ||
							binary.BigEndian.Uint64(v.Columns[0].Value) != uint64(j) {
							got := "nil"
							if v != nil {
								got = fmt.Sprintf("ts=%d val=%d", v.CommitTS, binary.BigEndian.Uint64(v.Columns[0].Value))
							}
							select {
							case violations <- fmt.Sprintf("table %d row %d at qts %d: got %s, want txn %d", tbl, idx+1, qts, got, j):
							default:
							}
							return
						}
					}
				}
			}
		}(int64(c) + 7)
	}

	// Feeder: epochs in order, a heartbeat every 7th epoch, a plan swap
	// (alternating rate, same hot table) every 11th.
	encs := epoch.EncodeAll(epoch.MustSplit(txns, eSize))
	rate := 1000.0
	for i := range encs {
		if err := e.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
		shippedMu.Lock()
		shippedTS = encs[i].LastCommitTS
		hb := shippedTS
		shippedMu.Unlock()
		if i%7 == 6 {
			if err := e.Feed(&epoch.Encoded{Seq: encs[i].Seq, LastCommitTS: hb}); err != nil {
				t.Fatal(err)
			}
		}
		if i%11 == 10 {
			rate = 3000 - rate // alternate 1000 <-> 2000
			e.SetPlan(mkPlan(rate))
		}
	}
	e.Drain()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-violations:
		t.Fatal(msg)
	default:
	}
}
