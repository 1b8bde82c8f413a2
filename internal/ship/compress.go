package ship

import (
	"bytes"
	"compress/flate"
	"math/bits"
	"sync"
	"time"

	"aets/internal/epoch"
)

// DefaultCompressThreshold is the smallest epoch buf, in bytes, a
// sender compresses by default. Below it the flate stream overhead and
// CPU outweigh the savings.
const DefaultCompressThreshold = 512

// deflater is one pooled flate writer and the scratch buffer it writes
// a frame into.
type deflater struct {
	fw  *flate.Writer
	out bytes.Buffer
}

// deflaters pools flate writers across frame builds: a build happens
// once per epoch, whichever sender runs it, so no sender owns a writer.
// compress/flate is the deflate side only; receivers inflate with the
// in-tree decoder (inflate.go).
var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	d.fw, _ = flate.NewWriter(&d.out, flate.BestSpeed)
	return d
}}

// flateEpochFrame returns enc's complete compressed EPOCH frame — the
// clear 48-byte epoch header followed by flate(enc.Buf) — or nil when
// compression fails to shrink the payload (incompressible buf), in
// which case the caller ships the raw form. The frame is an exact-size
// copy out of the pooled scratch buffer, so it can be retained.
//
// flate.BestSpeed is deliberate: WAL entry streams are highly
// repetitive (shared key prefixes, recurring column IDs and lengths), so
// the fast level already captures most of the win at a fraction of the
// CPU: on TPC-C epochs levels 2–9 save at most 4 % more bytes, levels 5–9
// at 2–10× the time, and HuffmanOnly ships 2.4× the bytes (EXPERIMENTS.md).
func flateEpochFrame(enc *epoch.Encoded) []byte {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.out.Reset()
	d.out.Write(appendEpochHdr(appendFrameHdr(d.out.AvailableBuffer(), KindEpoch, FlagCompressed), enc))
	d.fw.Reset(&d.out)
	if _, err := d.fw.Write(enc.Buf); err != nil {
		return nil
	}
	if err := d.fw.Close(); err != nil {
		return nil
	}
	if d.out.Len()-frameHdrSize >= epochHdrSize+len(enc.Buf) {
		return nil
	}
	return sealFrame(append(make([]byte, 0, d.out.Len()+4), d.out.Bytes()...), 0)
}

// Backoff returns the exponential reconnect delay base<<retry clamped
// to max, saturating instead of overflowing: at high retry counts the
// naive shift wraps through int64 and can land on a small positive
// value that slips past a "d > max" clamp, turning backoff into a hot
// reconnect loop. Callers add their own jitter.
func Backoff(base, max time.Duration, retry int) time.Duration {
	if max <= 0 {
		max = base
	}
	if base <= 0 || base >= max {
		return max
	}
	if retry < 0 {
		retry = 0
	}
	// bits.Len64(max/base) is the number of doublings that stays ≤ max:
	// for retry below it, base<<retry ≤ base·(max/base) ≤ max, so the
	// shift cannot overflow; at or above it the result saturates.
	if uint(retry) >= uint(bits.Len64(uint64(max/base))) {
		return max
	}
	if d := base << uint(retry); d <= max {
		return d
	}
	return max
}
