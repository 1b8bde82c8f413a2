package ship

import (
	"testing"

	"aets/internal/primary"
	"aets/internal/workload"
)

// BenchmarkShipCompress measures the sender-side compression path on
// real workload epoch streams: per-epoch cost of building a compressed
// EPOCH payload (clear 36-byte header + flate(buf)) plus framing it,
// exactly as the hot loop in Sender.Send does once CapFlate is
// negotiated. The wire/raw ratio is reported as ratio_wire/raw so
// bench-json archives the compression win next to the throughput — the
// numbers behind the EXPERIMENTS.md bytes-on-wire table.
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
			var comp epochCompressor
			frame := make([]byte, 0, 64<<10)
			b.SetBytes(rawBytes)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				wireBytes = 0
				for i := range encs {
					enc := &encs[i]
					if payload := comp.payload(enc); payload != nil && len(enc.Buf) >= DefaultCompressThreshold {
						frame = AppendFrame(frame[:0], KindEpoch, FlagCompressed, payload)
					} else {
						frame = AppendFrame(frame[:0], KindEpoch, 0, EncodeEpoch(enc))
					}
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
// TPC-C stream: header append + frame + CRC with no flate, i.e. what a
// peer without CapFlate costs per epoch. Diffing against BenchmarkShipCompress/tpcc
// shows the CPU price paid for the wire-byte win.
func BenchmarkShipEncodeRaw(b *testing.B) {
	encs := primary.New(workload.NewTPCC(2), 42).GenerateEncoded(4000, 128)
	var rawBytes int64
	for i := range encs {
		rawBytes += int64(frameHdrSize + epochHdrSize + len(encs[i].Buf) + 4)
	}
	frame := make([]byte, 0, 64<<10)
	b.SetBytes(rawBytes)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range encs {
			frame = AppendFrame(frame[:0], KindEpoch, 0, EncodeEpoch(&encs[i]))
		}
	}
	_ = frame
}
