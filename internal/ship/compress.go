package ship

import (
	"math/bits"
	"time"

	"aets/internal/epoch"
)

// DefaultCompressThreshold is the smallest epoch buf, in bytes, a
// sender compresses by default. Below it the flate stream overhead and
// CPU outweigh the savings.
const DefaultCompressThreshold = 512

// flateEpochFrame returns enc's complete compressed EPOCH frame — the
// clear 48-byte epoch header followed by deflate(enc.Buf), one final
// dynamic block (deflate.go) — or nil when that block would not be
// smaller than the buf, in which case the caller ships the raw form.
// The block is sized before it is written, so the frame is allocated
// once at its exact size and written in place.
func flateEpochFrame(enc *epoch.Encoded) []byte {
	e := flateEncoders.Get().(*flateEncoder)
	defer flateEncoders.Put(e)
	size := e.plan(enc.Buf)
	if size >= len(enc.Buf) {
		return nil
	}
	const off = frameHdrSize + epochHdrSize
	b := appendEpochHdr(appendFrameHdr(make([]byte, 0, off+size+4), KindEpoch, FlagCompressed), enc)
	// The writer may use the CRC's four bytes as slack for its stores.
	e.write(b[off:off+size+4], enc.Buf)
	return sealFrame(b[:off+size], 0)
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
