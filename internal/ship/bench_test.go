package ship

import (
	"bufio"
	"fmt"
	"io"
	"testing"

	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/workload"
)

// BenchmarkShipCompress measures the sender-side compression path on
// real workload epoch streams: per-epoch cost of building an epoch's
// complete wire frame in the form a CapFlate link writes (clear 48-byte
// header + deflate(buf), raw below DefaultCompressThreshold), exactly the
// Frame build Sender.flushLocked triggers once per epoch. The wire/raw
// ratio is reported as ratio_wire/raw so bench-json archives the
// compression win next to the throughput — the numbers behind the
// EXPERIMENTS.md bytes-on-wire table.
func BenchmarkShipCompress(b *testing.B) {
	workloads := []struct {
		name string
		gen  workload.Generator
	}{
		{"tpcc", workload.NewTPCC(2)},
		{"bustracker", workload.NewBusTracker()},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			encs := primary.New(w.gen, 42).GenerateEncoded(4000, 128)
			var rawBytes, wireBytes int64
			for i := range encs {
				rawBytes += int64(frameHdrSize + epochHdrSize + len(encs[i].Buf) + 4)
			}
			var built metrics.Counter
			b.SetBytes(rawBytes)
			for b.Loop() {
				wireBytes = 0
				for i := range encs {
					enc := &encs[i]
					frame := NewFrame(enc).wire(len(enc.Buf) >= DefaultCompressThreshold, &built)
					wireBytes += int64(len(frame))
				}
			}
			b.ReportMetric(float64(wireBytes)/float64(rawBytes), "ratio_wire/raw")
			if wireBytes >= rawBytes {
				b.Fatalf("%s stream did not compress: wire %d >= raw %d", w.name, wireBytes, rawBytes)
			}
		})
	}
}

// BenchmarkShipEncodeRaw is the uncompressed baseline over the same
// TPC-C stream: the raw Frame build (header + payload + CRC in one
// allocation, no flate), i.e. what a peer without CapFlate costs per
// epoch. Diffing against BenchmarkShipCompress/tpcc shows the CPU price
// paid for the wire-byte win.
func BenchmarkShipEncodeRaw(b *testing.B) {
	encs := primary.New(workload.NewTPCC(2), 42).GenerateEncoded(4000, 128)
	var rawBytes int64
	for i := range encs {
		rawBytes += int64(frameHdrSize + epochHdrSize + len(encs[i].Buf) + 4)
	}
	var built metrics.Counter
	b.SetBytes(rawBytes)
	for b.Loop() {
		for i := range encs {
			_ = NewFrame(&encs[i]).wire(false, &built)
		}
	}
}

// BenchmarkShipInflate is the receive side of BenchmarkShipCompress:
// DecodeEpochFrame over compressed EPOCH payloads, one op per pass over
// the epochs, MB/s counted in inflated bytes. TPC-C ships 2048-txn
// epochs (the catch-up fan-out's size), BusTracker 128-txn ones.
func BenchmarkShipInflate(b *testing.B) {
	workloads := []struct {
		name       string
		gen        workload.Generator
		txns, size int
	}{
		{"tpcc", workload.NewTPCC(2), 8192, 2048},
		{"bustracker", workload.NewBusTracker(), 4096, 128},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			encs := primary.New(w.gen, 42).GenerateEncoded(w.txns, w.size)
			payloads := make([][]byte, len(encs))
			var rawBytes int64
			for i := range encs {
				if payloads[i] = flatePayload(&encs[i]); payloads[i] == nil {
					b.Fatalf("%s epoch %d did not compress", w.name, i)
				}
				rawBytes += int64(len(encs[i].Buf))
			}
			b.SetBytes(rawBytes)
			for b.Loop() {
				for _, p := range payloads {
					if _, err := DecodeEpochFrame(FlagCompressed, p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkShipFanoutWrite is what a fan-out's senders spend per epoch
// (one op) on the same TPC-C stream: the epoch is wrapped once, and each
// of N peers writes its flate form into its own buffered writer over a
// discard sink and flushes, as flushLocked does. The first peer builds
// the form; the rest write the shared bytes, so ns/op should be nearly
// flat in N.
func BenchmarkShipFanoutWrite(b *testing.B) {
	encs := primary.New(workload.NewTPCC(2), 42).GenerateEncoded(4000, 128)
	for _, peers := range []int{1, 3} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			sinks := make([]*bufio.Writer, peers)
			for i := range sinks {
				sinks[i] = bufio.NewWriterSize(io.Discard, 1<<20)
			}
			var built metrics.Counter
			n := 0
			for b.Loop() {
				fr := NewFrame(&encs[n%len(encs)])
				n++
				for _, w := range sinks {
					if _, err := w.Write(fr.wire(true, &built)); err != nil {
						b.Fatal(err)
					}
					if err := w.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if built.Load() != int64(n) {
				b.Fatalf("%d builds for %d epochs", built.Load(), n)
			}
		})
	}
}
