package recovery

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"aets/internal/epoch"
	"aets/internal/ship"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// restampFrames rewrites the version and flags bytes of every frame in
// a segment image and recomputes each CRC: the bytes a build stamping
// that version would have left on disk.
func restampFrames(tb testing.TB, seg []byte, ver, flags byte) []byte {
	tb.Helper()
	out := append([]byte(nil), seg...)
	for off := 0; off < len(out); {
		end := off + 8 + int(binary.LittleEndian.Uint32(out[off+4:])) + 4
		if end > len(out) {
			tb.Fatalf("segment image is not whole frames at offset %d", off)
		}
		out[off+1], out[off+3] = ver, flags
		binary.LittleEndian.PutUint32(out[end-4:], crc32.Checksum(out[off:end-4], castagnoli))
		off = end
	}
	return out
}

// v4Segment is a spool segment a version-4 build wrote: three EPOCH
// frames whose BEGIN and DML entries still carry their txn ID and
// timestamp (internal/ship/testdata/v4-epochs.bin, which says how it was
// made). Its first frame fails ErrVersion.
func v4Segment(tb testing.TB) []byte {
	tb.Helper()
	seg, err := os.ReadFile(filepath.Join("..", "ship", "testdata", "v4-epochs.bin"))
	if err != nil {
		tb.Fatal(err)
	}
	return seg
}

// segmentImage frames encs the way Spool.Append does.
func segmentImage(encs []epoch.Encoded) []byte {
	var seg []byte
	for i := range encs {
		seg = ship.AppendFrame(seg, ship.KindEpoch, 0, ship.EncodeEpoch(&encs[i]))
	}
	return seg
}

// compressedPayload is enc's EPOCH payload as a CapFlate link ships it:
// the clear epoch header EncodeEpoch writes, then flate(enc.Buf).
func compressedPayload(enc *epoch.Encoded) []byte {
	raw := ship.EncodeEpoch(enc)
	hdr := len(raw) - len(enc.Buf)
	var z bytes.Buffer
	fw, _ := flate.NewWriter(&z, flate.BestSpeed)
	fw.Write(enc.Buf)
	fw.Close()
	return append(raw[:hdr:hdr], z.Bytes()...)
}

// compressedImage frames encs the way a CapFlate link's receiver spools
// them: every frame compressed, as AppendWire stores it.
func compressedImage(encs []epoch.Encoded) []byte {
	var seg []byte
	for i := range encs {
		seg = ship.AppendFrame(seg, ship.KindEpoch, ship.FlagCompressed, compressedPayload(&encs[i]))
	}
	return seg
}

// lastInOrderCRCValid is the fuzz oracle: the end offset of the longest
// prefix of whole frames whose CRCs validate and whose leading u64
// (the epoch seq) counts up by one. It checks nothing else — not magic,
// version, kind or payload shape — so it bounds any correct scan from
// above without sharing the reader's code.
func lastInOrderCRCValid(data []byte) int64 {
	off, expect := 0, uint64(0)
	for {
		if len(data)-off < 8 {
			return int64(off)
		}
		n := int(binary.LittleEndian.Uint32(data[off+4:]))
		end := off + 8 + n + 4
		if n < 8 || n > ship.MaxPayload || end > len(data) ||
			crc32.Checksum(data[off:end-4], castagnoli) != binary.LittleEndian.Uint32(data[end-4:]) {
			return int64(off)
		}
		seq := binary.LittleEndian.Uint64(data[off+8:])
		if off == 0 {
			expect = seq
		}
		if seq != expect {
			return int64(off)
		}
		expect++
		off = end
	}
}

// FuzzScanSegment writes arbitrary bytes as a spool's only segment file.
// The scan must never panic and never count bytes past the last
// CRC-valid in-order frame as good; recovery over the same file must
// leave a spool whose range matches the scan and that accepts the next
// epoch and replays it.
func FuzzScanSegment(f *testing.F) {
	encs := testEncs(f, 4)
	seg := segmentImage(encs)
	f.Add(seg)
	f.Add(seg[:len(seg)-7])
	f.Add(restampFrames(f, seg, 3, 0)) // a spool version 3 wrote (per-entry LSNs)
	f.Add(restampFrames(f, seg, ship.Version+1, 0))
	f.Add(v4Segment(f))
	f.Add(compressedImage(encs))
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add(segmentImage([]epoch.Encoded{encs[0], encs[2]})) // seq hole
	f.Add(ship.AppendFrame(append([]byte(nil), seg...), ship.KindHeartbeat, 0, make([]byte, 8)))
	f.Add([]byte{})
	f.Add([]byte{0xA7, ship.Version, ship.KindEpoch, 0, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fmt.Sprintf("%s%020d%s", spoolPrefix, 0, spoolSuffix))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		good, first, last, n, _ := scanSegment(path, 0, false, 0)
		if bound := lastInOrderCRCValid(data); good < 0 || good > bound {
			t.Fatalf("scan reports %d good bytes, last CRC-valid in-order frame ends at %d", good, bound)
		}
		if n > 0 && last-first != uint64(n-1) {
			t.Fatalf("scan counted %d frames over seqs [%d,%d]", n, first, last)
		}

		sp, err := OpenSpool(SpoolConfig{Dir: dir, Policy: SyncNever})
		if err != nil {
			t.Fatalf("open over fuzzed segment: %v", err)
		}
		defer sp.Close()
		if lo, hi, ok := sp.Range(); ok != (n > 0) || (ok && (lo != first || hi != last+1)) {
			t.Fatalf("spool range [%d,%d) ok=%v, scan saw %d frames over [%d,%d]", lo, hi, ok, n, first, last)
		}
		next := encs[0]
		next.Seq = sp.End()
		if err := sp.Append(&next); err != nil {
			t.Fatalf("append at End()=%d after recovery: %v", next.Seq, err)
		}
		var replayed int
		var tail uint64
		if err := sp.Replay(0, func(enc *epoch.Encoded) error {
			replayed++
			tail = enc.Seq
			return nil
		}); err != nil {
			t.Fatalf("replay after recovery: %v", err)
		}
		if replayed != n+1 || tail != next.Seq {
			t.Fatalf("replayed %d epochs ending at %d, want %d ending at %d", replayed, tail, n+1, next.Seq)
		}
	})
}
