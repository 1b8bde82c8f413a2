package ship

// Unit tests for the snapshot/anti-entropy wire additions: the new
// payload codecs, the snapReader's validation, and the hardened length
// handling (a hostile header claiming a huge payload over a short body
// must fail fast without preallocating the claim).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

func TestSnapshotPayloadCodecs(t *testing.T) {
	sc, claim, err := parseSnapBegin(appendSnapBegin(nil, 99, 1<<30))
	if err != nil || sc != 99 || claim != 1<<30 {
		t.Fatalf("snapbegin roundtrip: %d %d, %v", sc, claim, err)
	}
	if _, _, err := parseSnapBegin(make([]byte, 15)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short snapbegin: %v", err)
	}

	total, crc, err := parseSnapEnd(appendSnapEnd(nil, 12345, 0xfeedbeef))
	if err != nil || total != 12345 || crc != 0xfeedbeef {
		t.Fatalf("snapend roundtrip: %d %x, %v", total, crc, err)
	}
	if _, _, err := parseSnapEnd(make([]byte, 13)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("long snapend: %v", err)
	}

	seq, ts, dg, err := parseDigest(appendDigest(nil, 7, -42, 0xdead))
	if err != nil || seq != 7 || ts != -42 || dg != 0xdead {
		t.Fatalf("digest roundtrip: %d %d %x, %v", seq, ts, dg, err)
	}
	if _, _, _, err := parseDigest(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty digest: %v", err)
	}
}

// TestHostileLengthPrefixFailsWithoutPrealloc feeds a frame header
// claiming a payload just under MaxPayload followed by a 16-byte body:
// the reader must report a short frame quickly and must not allocate
// anywhere near the claimed quarter-gigabyte up front.
func TestHostileLengthPrefixFailsWithoutPrealloc(t *testing.T) {
	frame := AppendFrame(nil, KindSnapChunk, 0, bytes.Repeat([]byte{1}, 16))
	binary.LittleEndian.PutUint32(frame[4:8], MaxPayload-1)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, _, err := ReadFrameFlags(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrShortFrame) {
		t.Fatalf("want ErrShortFrame, got %v", err)
	}
	// One capped step (1 MiB) plus slack — nowhere near the 256 MiB claim.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("hostile length prefix allocated %d bytes", grew)
	}
}

// TestHostileEpochRawLengthCapped: a compressed epoch frame whose
// declared raw size is huge must not preallocate it either — inflate
// starts from a bounded buffer and dies when the stream ends.
func TestHostileEpochRawLengthCapped(t *testing.T) {
	enc := testEpoch(rand.New(rand.NewSource(3)), 3)
	enc.Buf = bytes.Repeat(enc.Buf[:8], 64)
	p := flatePayload(enc)
	if p == nil {
		t.Skip("payload incompressible")
	}
	lied := append([]byte(nil), p...)
	// bufLen (the raw length) sits at offset 32, just before bufCRC.
	binary.LittleEndian.PutUint32(lied[32:], uint32(MaxPayload-1))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeEpochFrame(FlagCompressed, lied)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("hostile raw length allocated %d bytes", grew)
	}
}

// snapStream frames a byte blob as SNAPCHUNK... SNAPEND (the body that
// follows a SNAPBEGIN on the wire).
func snapStream(data []byte, chunk int) []byte {
	var out []byte
	crc := uint32(0)
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		crc = crc32.Update(crc, castagnoli, data[off:end])
		out = AppendFrame(out, KindSnapChunk, 0, data[off:end])
	}
	return AppendFrame(out, KindSnapEnd, 0, appendSnapEnd(nil, uint64(len(data)), crc))
}

func TestSnapReaderValidStream(t *testing.T) {
	data := bytes.Repeat([]byte("snapshot-bytes-"), 1000)
	for _, claim := range []uint64{0, uint64(len(data))} {
		sr := newSnapReader(bufio.NewReader(bytes.NewReader(snapStream(data, 700))), claim)
		got, err := io.ReadAll(sr)
		if err != nil {
			t.Fatalf("claim %d: %v", claim, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("claim %d: stream bytes diverged", claim)
		}
		if err := sr.drain(); err != nil {
			t.Fatalf("claim %d: drain after EOF: %v", claim, err)
		}
	}
}

func TestSnapReaderRejectsTornAndCorrupt(t *testing.T) {
	data := bytes.Repeat([]byte{0xA5}, 5000)
	good := snapStream(data, 1024)

	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"torn mid-chunk", good[:len(good)/2], ErrShortFrame},
		{"missing trailer", good[:len(good)-36], ErrShortFrame},
		{"claim mismatch", good, ErrCorrupt}, // claim below actual, set below
	}
	for _, tc := range cases {
		claim := uint64(0)
		if tc.name == "claim mismatch" {
			claim = uint64(len(data)) - 1
		}
		sr := newSnapReader(bufio.NewReader(bytes.NewReader(tc.stream)), claim)
		if _, err := io.ReadAll(sr); !errors.Is(err, tc.want) {
			t.Fatalf("%s: want %v, got %v", tc.name, tc.want, err)
		}
		if err := sr.drain(); err == nil {
			t.Fatalf("%s: drain accepted a bad stream", tc.name)
		}
	}

	// Trailer CRC flip.
	flipped := append([]byte(nil), good...)
	// SNAPEND payload CRC is the last 4 bytes before the frame CRC;
	// rebuild the trailer frame with a wrong stream CRC instead of
	// corrupting frame bytes (that would fail the frame CRC first).
	trailerStart := len(flipped) - (frameHdrSize + 12 + 4)
	bad := append(flipped[:trailerStart:trailerStart],
		AppendFrame(nil, KindSnapEnd, 0, appendSnapEnd(nil, uint64(len(data)), 0x1234))...)
	sr := newSnapReader(bufio.NewReader(bytes.NewReader(bad)), 0)
	if _, err := io.ReadAll(sr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailer crc mismatch: want ErrCorrupt, got %v", err)
	}

	// A non-snapshot frame kind inside the stream.
	mixed := AppendFrame(nil, KindSnapChunk, 0, data[:100])
	mixed = AppendFrame(mixed, KindHeartbeat, 0, appendHeartbeat(nil, 5))
	sr = newSnapReader(bufio.NewReader(bytes.NewReader(mixed)), 0)
	if _, err := io.ReadAll(sr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign frame kind: want ErrCorrupt, got %v", err)
	}

	// An empty chunk is hostile (it can spin the stream forever).
	empty := AppendFrame(nil, KindSnapChunk, 0, nil)
	sr = newSnapReader(bufio.NewReader(bytes.NewReader(empty)), 0)
	if _, err := io.ReadAll(sr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty chunk: want ErrCorrupt, got %v", err)
	}

	// A chunk overrunning the SNAPBEGIN claim dies at the overrun, not
	// at the trailer.
	sr = newSnapReader(bufio.NewReader(bytes.NewReader(good)), 100)
	if _, err := io.ReadAll(sr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("claim overrun: want ErrCorrupt, got %v", err)
	}
}

// TestReadFullCappedSteps exercises the incremental reader directly
// across the prealloc boundary.
func TestReadFullCappedSteps(t *testing.T) {
	for _, n := range []int{0, 1, maxPrealloc - 1, maxPrealloc, maxPrealloc + 1, 3*maxPrealloc + 7} {
		src := bytes.Repeat([]byte{byte(n)}, n)
		got, err := readFullCapped(bytes.NewReader(src), n)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("n=%d: %v (len %d)", n, err, len(got))
		}
	}
	// Short source under a big claim: error, not a hang or huge alloc.
	if _, err := readFullCapped(bytes.NewReader(make([]byte, 100)), 1<<27); err == nil {
		t.Fatal("short source accepted")
	}
}
