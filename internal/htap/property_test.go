package htap

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/memtable"
	"aets/internal/reference"
	"aets/internal/wal"
)

// chaosTxns builds an adversarial random workload: many tables, skewed
// keys, same-transaction duplicate-row writes, deletes, and single-row
// hotspots — the patterns that break ordering protocols.
func chaosTxns(rng *rand.Rand, nTxns, nTables, keySpace int) []wal.Txn {
	txns := make([]wal.Txn, nTxns)
	ts := int64(0)
	writeCount := make(map[[2]uint64]uint64)
	for i := range txns {
		id := uint64(i + 1)
		ts += 1 + rng.Int63n(50)
		t := wal.Txn{ID: id, CommitTS: ts}
		n := 1 + rng.Intn(6)
		for j := 0; j < n; j++ {
			table := wal.TableID(1 + rng.Intn(nTables))
			var key uint64
			switch rng.Intn(3) {
			case 0:
				key = 7 // hotspot row
			case 1:
				key = uint64(1 + rng.Intn(8)) // warm band
			default:
				key = uint64(1 + rng.Intn(keySpace))
			}
			op := wal.TypeUpdate
			switch rng.Intn(10) {
			case 0:
				op = wal.TypeDelete
			case 1:
				op = wal.TypeInsert
			}
			ref := [2]uint64{uint64(table), key}
			e := wal.Entry{
				Type: op, TxnID: id, Timestamp: ts, Table: table, RowKey: key,
				WriteSeq: writeCount[ref],
			}
			if op != wal.TypeDelete {
				e.Columns = []wal.Column{{ID: uint32(j), Value: []byte{byte(i), byte(j)}}}
			}
			writeCount[ref]++
			t.Entries = append(t.Entries, e)
		}
		txns[i] = t
	}
	return txns
}

// TestChaosEquivalenceQuick replays random adversarial workloads through
// all four algorithms and demands version-for-version equality with the
// serial reference.
func TestChaosEquivalenceQuick(t *testing.T) {
	tables := []wal.TableID{1, 2, 3, 4, 5}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		txns := chaosTxns(rng, 300+rng.Intn(500), len(tables), 200)
		epochSize := 1 << (3 + rng.Intn(5)) // 8..128

		ref := memtable.New()
		reference.Apply(ref, txns)

		rates := map[wal.TableID]float64{1: 1000, 2: 500}
		plan := grouping.Build(rates, tables, grouping.Options{PerTable: true})

		for _, k := range Kinds {
			mt := memtable.New()
			r, err := NewReplayer(k, mt, plan, Options{Workers: 3})
			if err != nil {
				t.Log(err)
				return false
			}
			r.Start()
			for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, epochSize)) {
				enc := enc
				r.Feed(&enc)
			}
			r.Drain()
			r.Stop()
			if err := r.Err(); err != nil {
				t.Logf("%s: %v", k, err)
				return false
			}
			if err := reference.Equal(ref, mt, tables); err != nil {
				t.Logf("%s (seed %d, epoch %d): %v", k, seed, epochSize, err)
				return false
			}
			if err := reference.CheckChains(mt, tables); err != nil {
				t.Logf("%s: %v", k, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptEpochFailsCleanly feeds a corrupted epoch followed by a good
// one and expects every replayer to surface an error without deadlocking
// Drain: the good epoch must complete behind the failed one, at one epoch
// in flight (0 means 1) and with overlapping epochs. For ATR that means
// its sequence check gives up on writes of the corrupt epoch that were
// never dispatched.
func TestCorruptEpochFailsCleanly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	txns := chaosTxns(rng, 75, 3, 50)
	encs := epoch.EncodeAll(epoch.MustSplit(txns, 25))
	tables := []wal.TableID{1, 2, 3}
	plan := grouping.SingleGroup(tables)

	// Truncate mid-frame: framing breaks for every parser.
	corrupt := encs[1]
	corrupt.Buf = corrupt.Buf[:len(corrupt.Buf)-3]

	for _, depth := range []int{0, 2} {
		for _, k := range Kinds {
			r, err := NewReplayer(k, memtable.New(), plan, Options{Workers: 2, Pipeline: depth})
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			first, last := encs[0], encs[2]
			r.Feed(&first)
			r.Feed(&corrupt)
			r.Feed(&last)
			r.Drain()
			r.Stop()
			if r.Err() == nil {
				t.Fatalf("%s depth=%d: corrupted epoch accepted silently", k, depth)
			}
		}
	}
}

// TestPacedRunRecordsLowDelays verifies the pacing path: at a primary rate
// well below replay throughput, visibility delays must be far smaller than
// the unpaced backlog regime.
func TestPacedRunRecordsLowDelays(t *testing.T) {
	exp := smallTPCC(60)
	rate, err := CalibrateRate(exp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatal("calibrated rate must be positive")
	}
	exp.PrimaryRate = rate
	res, err := Run(KindAETS, exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visibility.Count() == 0 {
		t.Fatal("paced run recorded no queries")
	}
	// The paced run must take at least Txns/rate seconds.
	minElapsed := float64(exp.Txns) / rate
	if res.Throughput.Elapsed.Seconds() < minElapsed*0.9 {
		t.Fatalf("paced run finished in %v, expected ≥ %.2fs", res.Throughput.Elapsed, minElapsed)
	}
}

// TestHeartbeatInterleavedWithData mixes dummy heartbeat epochs into the
// stream; replay must stay correct and the global timestamp monotone.
func TestHeartbeatInterleavedWithData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	txns := chaosTxns(rng, 200, 3, 100)
	tables := []wal.TableID{1, 2, 3}
	plan := grouping.SingleGroup(tables)
	ref := memtable.New()
	reference.Apply(ref, txns)

	for _, k := range Kinds {
		mt := memtable.New()
		r, err := NewReplayer(k, mt, plan, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		seq := uint64(0)
		for _, enc := range epoch.EncodeAll(epoch.MustSplit(txns, 50)) {
			enc := enc
			enc.Seq = seq
			seq++
			r.Feed(&enc)
			hb := epoch.Encoded{Seq: seq, LastCommitTS: enc.LastCommitTS + 1}
			seq++
			r.Feed(&hb)
		}
		r.Drain()
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := reference.Equal(ref, mt, tables); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		// C5's snapshot advances on its periodic watermark, so allow a
		// bounded wait rather than an instantaneous check.
		last := txns[len(txns)-1].CommitTS
		done := make(chan struct{})
		go func() {
			r.WaitVisible(last+1, nil)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: heartbeat TS never became visible", k)
		}
		r.Stop()
	}
}
