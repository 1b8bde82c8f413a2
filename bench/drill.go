package main

import (
	"os"
	"time"

	"aets/internal/dispatch"
	"aets/internal/epoch"
	"aets/internal/htap"
	"aets/internal/recovery"
	"aets/internal/ship"
)

// drillTxns caps how much of the stream a drill replays, so a traced
// run stays inside its time budget on the larger streams.
const drillTxns = 60000

// runDrills times single layers alone over the run's own stream, after
// the run: no ship, no spool, no concurrent load. A layer's drill cost
// against its in-situ span says how much of the span is waiting.
func runDrills(s *stream, p Properties, outDir string) (drills, error) {
	d := drills{genUSPerTxn: div(float64(s.genDur.Microseconds()), float64(s.txns()))}
	n := min(len(s.encs), max(1, drillTxns/p.EpochSize))
	encs := s.encs[:n]

	// epoch.Encode over decoded epochs.
	var encode time.Duration
	for i := range encs {
		txns, err := encs[i].Decode()
		if err != nil {
			return d, err
		}
		t := time.Now()
		epoch.Encode(&epoch.Epoch{Seq: encs[i].Seq, Txns: txns}, 1)
		encode += time.Since(t)
	}
	d.encodeUSPerEpoch = div(float64(encode.Microseconds()), float64(n))

	// dispatch.Buffers.Dispatch with recycled buffers, as the engine does.
	bufs := dispatch.NewBuffers()
	t := time.Now()
	for i := range encs {
		if _, err := bufs.Dispatch(&encs[i], s.plan); err != nil {
			return d, err
		}
	}
	d.dispatchUSPerEpoch = div(float64(time.Since(t).Microseconds()), float64(n))

	// Spool.AppendWire on a scratch spool under the run's sync policy.
	// The drill appends raw frames; in situ the frames arrive deflated,
	// so this is an upper bound on the bytes written.
	dir, err := os.MkdirTemp(outDir, "drill-")
	if err != nil {
		return d, err
	}
	defer os.RemoveAll(dir)
	sp, err := recovery.OpenSpool(recovery.SpoolConfig{Dir: dir, Policy: recovery.SyncInterval})
	if err != nil {
		return d, err
	}
	var appendDur time.Duration
	for i := range encs {
		payload := ship.EncodeEpoch(&encs[i])
		t := time.Now()
		err := sp.AppendWire(encs[i].Seq, 0, payload)
		appendDur += time.Since(t)
		if err != nil {
			sp.Close()
			return d, err
		}
	}
	if err := sp.Close(); err != nil {
		return d, err
	}
	d.spoolAppendUSPerEpoch = div(float64(appendDur.Microseconds()), float64(n))

	// Node.Feed + Drain: the replay engine and memtable alone.
	node, err := htap.NewNode(htap.KindAETS, s.plan, htap.Options{Pipeline: replayPipeline, Columnar: p.Columnar})
	if err != nil {
		return d, err
	}
	t = time.Now()
	for i := range encs {
		if err := node.Feed(&encs[i]); err != nil {
			node.Close()
			return d, err
		}
	}
	node.Drain()
	d.replayTxnsPerS = div(float64(s.firstTxn[n]), time.Since(t).Seconds())
	if err := node.Err(); err != nil {
		node.Close()
		return d, err
	}
	return d, node.Close()
}
