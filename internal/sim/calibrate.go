package sim

import (
	"math/rand"
	"time"

	"aets/internal/memtable"
	"aets/internal/wal"
)

// Calibrate measures the cost-model constants on the running machine by
// micro-benchmarking the real codec and Memtable, so simulated throughputs
// are anchored to actual single-core speeds rather than guesses. The
// structural constants (contention slope, dispatcher sharding) keep their
// defaults; they describe algorithm shape, not machine speed.
func Calibrate() Costs {
	c := DefaultCosts()
	rng := rand.New(rand.NewSource(1))

	// Sample entries resembling the benchmark workloads.
	const samples = 4096
	entries := make([]wal.Entry, samples)
	frames := make([][]byte, samples)
	for i := range entries {
		entries[i] = wal.Entry{
			Type: wal.TypeUpdate, Table: wal.TableID(rng.Intn(8) + 1),
			RowKey: rng.Uint64() % 100000,
			Columns: []wal.Column{
				{ID: 1, Value: make([]byte, 8)},
				{ID: 2, Value: make([]byte, 16)},
			},
		}
		frames[i] = wal.Encode(&entries[i])
	}

	c.ParseMeta = timePerOp(samples, func(i int) {
		_, _, _ = wal.DecodeHeader(frames[i])
	})
	c.ParseFull = timePerOp(samples, func(i int) {
		_, _, _ = wal.Decode(frames[i])
	})

	mt := memtable.New()
	c.Lookup = timePerOp(samples, func(i int) {
		mt.Table(entries[i].Table).GetOrCreate(entries[i].RowKey)
	})
	recs := make([]*memtable.Record, samples)
	vers := make([]*memtable.Version, samples)
	for i := range recs {
		recs[i] = mt.Table(entries[i].Table).GetOrCreate(entries[i].RowKey)
		vers[i] = &memtable.Version{TxnID: uint64(i), CommitTS: int64(i),
			Columns: entries[i].Columns}
	}
	// Install is the pure link cost: TPLR allocates versions in phase 1,
	// so the commit thread only locks and swings pointers.
	c.Install = timePerOp(samples, func(i int) {
		recs[i].Append(vers[i])
	})
	return c
}

func timePerOp(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	ns := float64(time.Since(start)) / float64(n)
	if ns < 1 {
		ns = 1
	}
	return ns
}
