package ship

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// fuzzSeeds are valid frames of every kind plus pathological inputs.
func fuzzSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(11))
	enc := testEpoch(rng, 5)
	seeds := [][]byte{
		nil,
		{frameMagic},
		AppendFrame(nil, KindHello, 0, appendHello(nil, 0xabc, CapFlate|CapSnapshot)),
		AppendFrame(nil, KindWelcome, 0, appendWelcome(nil, 0xabc, 17, CapFlate|CapSnapshot, ReqSnapshot)),
		AppendFrame(nil, KindEpoch, 0, EncodeEpoch(enc)),
		AppendFrame(nil, KindAck, 0, appendCursor(nil, 9)),
		AppendFrame(nil, KindHeartbeat, 0, appendHeartbeat(nil, 123)),
		AppendFrame(nil, KindEOS, 0, appendCursor(nil, 8)),
	}
	// A truncated and a bit-flipped epoch frame.
	full := AppendFrame(nil, KindEpoch, 0, EncodeEpoch(enc))
	seeds = append(seeds, full[:len(full)/2])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x10
	seeds = append(seeds, flipped)

	// The version byte: a raw epoch in version 3's layout (a 40-byte
	// header, no firstLSN) stamped 3, and one stamped with the next
	// version. Both are refused.
	v3 := AppendFrame(nil, KindEpoch, 0, append(EncodeEpoch(enc)[:40:40], enc.Buf...))
	seeds = append(seeds,
		restamp(v3, 3, 0),
		restamp(full, Version+1, 0),
	)
	// A genuine version-4 epoch (txn ID and timestamp in every entry),
	// as that build stamped it: refused on its version byte.
	seeds = append(seeds, v4Frame(tb))
	// A compressed epoch, a compressed epoch with a mangled flate
	// stream, and hostile count/length headers.
	cenc := testEpoch(rng, 6)
	cenc.Buf = bytes.Repeat(cenc.Buf[:8], 64)
	cenc.TxnCount, cenc.EntryCount = 3, 17
	if cp := flatePayload(cenc); cp != nil {
		seeds = append(seeds, AppendFrame(nil, KindEpoch, FlagCompressed, cp))
		mangled := AppendFrame(nil, KindEpoch, FlagCompressed, cp)
		mangled[frameHdrSize+epochHdrSize+2] ^= 0xff
		seeds = append(seeds, mangled)
	}
	// Counts claiming ~4B entries over a tiny buf (the dead-check bug).
	hostile := EncodeEpoch(enc)
	hostile[8], hostile[9], hostile[10], hostile[11] = 0xff, 0xff, 0xff, 0xff
	hostile[28], hostile[29], hostile[30], hostile[31] = 0xff, 0xff, 0xff, 0xff
	seeds = append(seeds, AppendFrame(nil, KindEpoch, 0, hostile))
	// Compressed frame whose declared raw length is absurd, and one whose
	// flate body inflates cleanly to the wrong bytes (bufCRC refuses it).
	if cp := flatePayload(cenc); cp != nil {
		lied := append([]byte(nil), cp...)
		lied[32], lied[33], lied[34], lied[35] = 0xff, 0xff, 0xff, 0x0f
		seeds = append(seeds, AppendFrame(nil, KindEpoch, FlagCompressed, lied))
	}
	seeds = append(seeds, swapBody(cenc))
	// Snapshot catch-up and anti-entropy frames.
	seeds = append(seeds,
		AppendFrame(nil, KindSnapBegin, 0, appendSnapBegin(nil, 42, 1<<20)),
		AppendFrame(nil, KindSnapChunk, 0, bytes.Repeat([]byte{0xee}, 512)),
		AppendFrame(nil, KindSnapEnd, 0, appendSnapEnd(nil, 512, 0xdeadbeef)),
		AppendFrame(nil, KindDigest, 0, appendDigest(nil, 42, 123, 0xfeed)),
	)
	// Hostile length prefixes: a header claiming a payload near
	// MaxPayload over a tiny body (must die as a short frame without
	// preallocating the claim), and a SNAPBEGIN claiming 2^64-1 bytes.
	over := AppendFrame(nil, KindSnapChunk, 0, bytes.Repeat([]byte{1}, 64))
	binary.LittleEndian.PutUint32(over[4:8], MaxPayload-1)
	seeds = append(seeds, over)
	seeds = append(seeds,
		AppendFrame(nil, KindSnapBegin, 0, appendSnapBegin(nil, 1, ^uint64(0))))
	return seeds
}

// checkReadFrame asserts the decoder's closed error contract: every
// input either yields a frame or one of the typed errors — no panics,
// no foreign errors.
func checkReadFrame(t *testing.T, data []byte) {
	t.Helper()
	kind, flags, payload, err := ReadFrameFlags(bytes.NewReader(data))
	switch {
	case err == nil:
		if kind == KindEpoch {
			enc, derr := DecodeEpochFrame(flags, payload)
			switch {
			case derr == nil:
				if enc == nil {
					t.Fatal("DecodeEpochFrame returned nil, nil")
				}
				// The bounds invariant downstream consumers rely on.
				if enc.TxnCount > len(enc.Buf) || enc.EntryCount > len(enc.Buf) {
					t.Fatalf("decoded counts %d/%d exceed buf %d", enc.TxnCount, enc.EntryCount, len(enc.Buf))
				}
				// An inflated buf is accepted only if bufCRC vouches for it.
				if flags&FlagCompressed != 0 && crc32.Checksum(enc.Buf, castagnoli) != binary.LittleEndian.Uint32(payload[36:]) {
					t.Fatal("compressed epoch accepted with a buf that fails bufCRC")
				}
			case errors.Is(derr, ErrCorrupt):
			default:
				t.Fatalf("DecodeEpochFrame returned untyped error %v", derr)
			}
		}
	case errors.Is(err, io.EOF), errors.Is(err, ErrShortFrame),
		errors.Is(err, ErrCorrupt), errors.Is(err, ErrVersion):
	default:
		t.Fatalf("ReadFrame returned untyped error %v for %d bytes", err, len(data))
	}

	// The flag-blind wrapper upholds the same contract.
	if _, _, rerr := ReadFrame(bytes.NewReader(data)); rerr != nil &&
		!errors.Is(rerr, io.EOF) && !errors.Is(rerr, ErrShortFrame) &&
		!errors.Is(rerr, ErrCorrupt) && !errors.Is(rerr, ErrVersion) {
		t.Fatalf("ReadFrame returned untyped error %v for %d bytes", rerr, len(data))
	}
}

// FuzzReadFrame throws arbitrary bytes at the frame decoder: a
// malformed or truncated frame must never panic the receiver — it
// returns a typed ErrCorrupt/ErrShortFrame/ErrVersion (mirrors
// internal/wal's codec fuzz).
func FuzzReadFrame(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadFrame(t, data)
	})
}

// TestReadFrameNeverPanicsOnMutation runs the same property over
// deterministic mutations in a plain `go test` run (no fuzz engine).
func TestReadFrameNeverPanicsOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 3000; trial++ {
		buf := AppendFrame(nil, KindEpoch, 0, EncodeEpoch(testEpoch(rng, uint64(trial))))
		for m := 0; m < 1+rng.Intn(4); m++ {
			buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(3) == 0 {
			buf = buf[:rng.Intn(len(buf))]
		}
		checkReadFrame(t, buf)
	}
}

// TestReadFrameNeverPanicsOnRandomBytes throws raw noise at the
// decoders.
func TestReadFrameNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		buf := make([]byte, rng.Intn(300))
		rng.Read(buf)
		checkReadFrame(t, buf)
		_, _ = DecodeEpochFrame(0, buf)
	}
}
