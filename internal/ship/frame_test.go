package ship

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aets/internal/epoch"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/wal"
	"aets/internal/workload"
)

func testEpoch(rng *rand.Rand, seq uint64) *epoch.Encoded {
	buf := make([]byte, 10+rng.Intn(200))
	rng.Read(buf)
	// Counts stay ≤ len(buf): DecodeEpochFrame rejects epochs claiming more
	// transactions or entries than the buf could possibly hold.
	return &epoch.Encoded{
		Seq:          seq,
		Buf:          buf,
		TxnCount:     1 + rng.Intn(len(buf)),
		EntryCount:   1 + rng.Intn(len(buf)),
		FirstLSN:     rng.Uint64(),
		FirstTxnID:   uint64(rng.Int63()),
		LastTxnID:    uint64(rng.Int63()),
		LastCommitTS: rng.Int63(),
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var b bytes.Buffer
	payloads := map[byte][]byte{
		KindHello:     appendHello(nil, 0xfeed, CapFlate),
		KindWelcome:   appendWelcome(nil, 0xfeed, 42, CapFlate|CapSnapshot, ReqSnapshot),
		KindAck:       appendCursor(nil, 7),
		KindHeartbeat: appendHeartbeat(nil, -1),
		KindEOS:       appendCursor(nil, 99),
	}
	for kind, p := range payloads {
		if err := WriteFrame(&b, kind, p); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[byte]bool{}
	for i := 0; i < len(payloads); i++ {
		kind, p, err := ReadFrame(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, payloads[kind]) {
			t.Fatalf("kind %d payload mismatch", kind)
		}
		seen[kind] = true
	}
	if len(seen) != len(payloads) {
		t.Fatalf("saw %d kinds, want %d", len(seen), len(payloads))
	}
	if _, _, err := ReadFrame(&b); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestHandshakePayloadParsers(t *testing.T) {
	schema, caps, err := parseHello(appendHello(nil, 123, CapFlate))
	if err != nil || schema != 123 || caps != CapFlate {
		t.Fatalf("hello: %d %d, %v", schema, caps, err)
	}
	s2, cur, c2, req, err := parseWelcome(appendWelcome(nil, 5, 6, CapFlate|CapSnapshot, ReqSnapshot))
	if err != nil || s2 != 5 || cur != 6 || c2 != CapFlate|CapSnapshot || req != ReqSnapshot {
		t.Fatalf("welcome: %d %d %d %d %v", s2, cur, c2, req, err)
	}
	ts, err := parseHeartbeat(appendHeartbeat(nil, -77))
	if err != nil || ts != -77 {
		t.Fatalf("heartbeat: %d %v", ts, err)
	}
	// Every other length is refused — including the 8-byte HELLO and the
	// 16- and 24-byte WELCOMEs older builds sent.
	for _, n := range []int{0, 1, 7, 8, 9, 15, 17, 24, 31, 33} {
		bad := make([]byte, n)
		if _, _, err := parseHello(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("hello accepted %d bytes", n)
		}
		if _, _, _, _, err := parseWelcome(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("welcome accepted %d bytes", n)
		}
	}
}

func TestEpochPayloadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		want := testEpoch(rng, uint64(i))
		got, err := DecodeEpochFrame(0, EncodeEpoch(want))
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != want.Seq || got.TxnCount != want.TxnCount ||
			got.EntryCount != want.EntryCount || got.LastTxnID != want.LastTxnID ||
			got.LastCommitTS != want.LastCommitTS || got.FirstLSN != want.FirstLSN ||
			!bytes.Equal(got.Buf, want.Buf) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// flatePayload returns the EPOCH payload enc's frame carries in its
// flate form, or nil when that form fell back to the raw bytes.
func flatePayload(enc *epoch.Encoded) []byte {
	b := NewFrame(enc).wire(true, new(metrics.Counter))
	if b[3]&FlagCompressed == 0 {
		return nil
	}
	return b[frameHdrSize : len(b)-4]
}

// TestFrameFormsBuiltOnceAndByteStable pins what a link writes: the raw
// form is AppendFrame over EncodeEpoch, the flate form is AppendFrame
// over the clear epoch header and a body compress/flate's reader and
// inflate both decode to the buf, each form is built once and written
// byte-identically however often it is written, and the flate form of
// an epoch deflate cannot shrink is the raw form's bytes.
func TestFrameFormsBuiltOnceAndByteStable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	enc := testEpoch(rng, 4)
	enc.Buf = bytes.Repeat(enc.Buf[:10], 100)
	enc.TxnCount, enc.EntryCount = 3, 9
	wantRaw := AppendFrame(nil, KindEpoch, 0, EncodeEpoch(enc))

	var built metrics.Counter
	fr := NewFrame(enc)
	flated := fr.wire(true, &built)
	body := flatePayload(enc)
	if body == nil || !bytes.Equal(flated, AppendFrame(nil, KindEpoch, FlagCompressed, body)) ||
		!bytes.Equal(body[:epochHdrSize], appendEpochHdr(nil, enc)) {
		t.Fatal("flate form is not a compressed frame over the clear epoch header")
	}
	body = body[epochHdrSize:]
	if got, ok := stdInflate(body, len(enc.Buf)); !ok || !bytes.Equal(got, enc.Buf) {
		t.Fatal("compress/flate does not decode the flate form's body to the buf")
	}
	if got, err := inflate(body, len(enc.Buf)); err != nil || !bytes.Equal(got, enc.Buf) {
		t.Fatalf("inflate does not decode the flate form's body to the buf: %v", err)
	}
	for i := 0; i < 3; i++ {
		if got := fr.wire(true, &built); !bytes.Equal(got, flated) {
			t.Fatalf("write %d: flate form changed", i)
		}
		if got := fr.wire(false, &built); !bytes.Equal(got, wantRaw) {
			t.Fatalf("write %d: raw form differs from the reference frame", i)
		}
	}
	if got := built.Load(); got != 2 {
		t.Fatalf("%d builds for two forms written three times each, want 2", got)
	}

	inc := testEpoch(rng, 5)
	inc.Buf = make([]byte, 4096)
	rng.Read(inc.Buf)
	var incBuilt metrics.Counter
	fr = NewFrame(inc)
	flated, raw := fr.wire(true, &incBuilt), fr.wire(false, &incBuilt)
	if &flated[0] != &raw[0] || !bytes.Equal(raw, AppendFrame(nil, KindEpoch, 0, EncodeEpoch(inc))) {
		t.Fatal("incompressible epoch: flate form is not the raw form's bytes")
	}
	if got := incBuilt.Load(); got != 2 {
		t.Fatalf("incompressible epoch: %d builds, want 2 (the deflate attempt and the raw form)", got)
	}
}

// TestFrameConcurrentWritersBuildOnce: senders racing for the same form
// of a shared frame get one build and the same bytes.
func TestFrameConcurrentWritersBuildOnce(t *testing.T) {
	enc := testEpoch(rand.New(rand.NewSource(32)), 1)
	enc.Buf = bytes.Repeat(enc.Buf[:10], 500)
	fr := NewFrame(enc)
	var built metrics.Counter
	got := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fr.wire(true, &built)
		}()
	}
	wg.Wait()
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("writer %d got its own bytes", i)
		}
	}
	if n := built.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
}

func TestReadFrameRejectsDamage(t *testing.T) {
	valid := AppendFrame(nil, KindEpoch, 0, EncodeEpoch(testEpoch(rand.New(rand.NewSource(2)), 3)))

	for cut := 1; cut < len(valid); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(valid[:cut]))
		if !errors.Is(err, ErrShortFrame) {
			t.Fatalf("truncation at %d: got %v, want ErrShortFrame", cut, err)
		}
	}

	bad := append([]byte(nil), valid...)
	bad[0] = 0x00 // magic
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), valid...)
	bad[len(bad)/2] ^= 0x40 // flip a payload bit: CRC must catch it
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload corruption: %v", err)
	}

	// An absurd length must be rejected before allocation.
	huge := AppendFrame(nil, KindAck, 0, appendCursor(nil, 1))
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: %v", err)
	}
}

// restamp rewrites a frame's version and flags bytes and recomputes its
// CRC: the frame a build with that version would have written.
func restamp(frame []byte, ver, flags byte) []byte {
	out := append([]byte(nil), frame...)
	out[1], out[3] = ver, flags
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], castagnoli))
	return out
}

// v4Frame returns the first of three EPOCH frames in testdata/v4-epochs.bin,
// written by a version-4 build (the last whose BEGIN and DML entries carry
// their txn ID and timestamp, and DML entries their row's previous
// writer) from
// primary.New(workload.NewTPCC(1), 4).GenerateEncoded(6, 2), each framed
// by AppendFrame(…, KindEpoch, 0, EncodeEpoch(…)) as its sender and spool
// did.
func v4Frame(tb testing.TB) []byte {
	tb.Helper()
	seg, err := os.ReadFile(filepath.Join("testdata", "v4-epochs.bin"))
	if err != nil {
		tb.Fatal(err)
	}
	if seg[1] != 4 {
		tb.Fatalf("v4-epochs.bin stamped %d", seg[1])
	}
	return seg[:frameHdrSize+int(binary.LittleEndian.Uint32(seg[4:]))+4]
}

// TestReadFrameVersionByte pins the one-version rule: Version is
// accepted with any known flags, and every other byte — the previous
// version's included, raw or compressed — is ErrVersion whatever else
// the header says.
func TestReadFrameVersionByte(t *testing.T) {
	enc := testEpoch(rand.New(rand.NewSource(4)), 9)
	raw := AppendFrame(nil, KindEpoch, 0, EncodeEpoch(enc))
	comp := AppendFrame(nil, KindEpoch, FlagCompressed, flatePayload(&epoch.Encoded{Seq: 9, TxnCount: 1, EntryCount: 1, Buf: bytes.Repeat([]byte("abcd"), 256)}))
	if raw[1] != Version || comp[1] != Version {
		t.Fatalf("frames stamped %d/%d, want %d", raw[1], comp[1], Version)
	}
	cases := []struct {
		name  string
		frame []byte
		want  error // nil = accepted
	}{
		{"current raw", raw, nil},
		{"current compressed", comp, nil},
		{"previous raw", restamp(raw, Version-1, 0), ErrVersion},
		{"previous compressed", restamp(comp, Version-1, FlagCompressed), ErrVersion},
		{"version 4 as written", v4Frame(t), ErrVersion},
		{"zero", restamp(raw, 0, 0), ErrVersion},
		{"next", restamp(raw, Version+1, 0), ErrVersion},
		{"next with flags", restamp(comp, Version+1, FlagCompressed), ErrVersion},
		{"max", restamp(raw, 0xff, 0), ErrVersion},
	}
	for _, tc := range cases {
		_, flags, payload, err := ReadFrameFlags(bytes.NewReader(tc.frame))
		if tc.want != nil {
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := DecodeEpochFrame(flags, payload); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
	}
}

func TestDecodeEpochRejectsDamage(t *testing.T) {
	if _, err := DecodeEpochFrame(0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil payload: %v", err)
	}
	p := EncodeEpoch(testEpoch(rand.New(rand.NewSource(3)), 0))
	if _, err := DecodeEpochFrame(0, p[:20]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short payload: %v", err)
	}
	// Declared buf length disagreeing with the payload size.
	p[32] ^= 0xff
	if _, err := DecodeEpochFrame(0, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bufLen mismatch: %v", err)
	}
}

func TestSchemaHashSensitivity(t *testing.T) {
	a := SchemaHash("tpcc", []wal.TableID{1, 2, 3})
	if a != SchemaHash("tpcc", []wal.TableID{1, 2, 3}) {
		t.Fatal("hash not deterministic")
	}
	if a == SchemaHash("tpcc", []wal.TableID{1, 2}) {
		t.Fatal("hash ignores tables")
	}
	if a == SchemaHash("chbench", []wal.TableID{1, 2, 3}) {
		t.Fatal("hash ignores name")
	}
}

// Regression: without a length prefix on the name, distinct (name,
// tables) pairs whose concatenated byte streams coincide hashed
// identically and passed the handshake. ("a", [0x62]) fed the hasher
// 'a' 'b' 0 0 0 — exactly what ("ab\x00\x00\x00", []) fed it.
func TestSchemaHashNameTableBoundary(t *testing.T) {
	a := SchemaHash("a", []wal.TableID{0x62})
	b := SchemaHash("ab\x00\x00\x00", nil)
	if a == b {
		t.Fatalf("schema hash collides across the name/table boundary: %016x", a)
	}
	// The shifted-boundary family more generally.
	c := SchemaHash("ab", []wal.TableID{0x63, 0x64})
	d := SchemaHash("abc", []wal.TableID{0x64000000, 0})
	if c == d {
		t.Fatalf("schema hash collides when ID bytes slide into the name: %016x", c)
	}
}

// Regression: the old `TxnCount < 0 || EntryCount < 0` check was dead
// code (uint32→int is never negative on 64-bit), so a hostile frame
// could claim ~4 billion entries over an empty buf and poison
// consumers that trust EntryCount. Counts must be sane relative to the
// buf they describe.
func TestDecodeEpochRejectsAbsurdCounts(t *testing.T) {
	base := testEpoch(rand.New(rand.NewSource(9)), 5)
	for _, tc := range []struct {
		name       string
		txns, ents uint32
		ok         bool
	}{
		{"max-entries-empty-ish-buf", 1, 0xffffffff, false},
		{"max-txns", 0xffffffff, 1, false},
		{"counts-at-buf-len", uint32(len(base.Buf)), uint32(len(base.Buf)), true},
		{"counts-past-buf-len", uint32(len(base.Buf)) + 1, 1, false},
	} {
		p := EncodeEpoch(base)
		binary.LittleEndian.PutUint32(p[8:], tc.txns)
		binary.LittleEndian.PutUint32(p[28:], tc.ents)
		_, err := DecodeEpochFrame(0, p)
		if tc.ok && err != nil {
			t.Fatalf("%s: unexpected reject: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
	// A zero-buf epoch claiming entries must die too.
	empty := &epoch.Encoded{Seq: 1, LastCommitTS: 1}
	p := EncodeEpoch(empty)
	binary.LittleEndian.PutUint32(p[28:], 4_000_000_000)
	if _, err := DecodeEpochFrame(0, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("entries over empty buf: %v", err)
	}
}

// DecodeEpochFrame's documented sharp edge: an uncompressed frame's
// decoded Buf aliases the frame payload (no copy on the hot path).
// Retention sites rely on ReadFrameFlags allocating a fresh payload per
// frame; both contracts are pinned here so a "harmless" buffer-reuse
// optimization cannot silently corrupt a queued epoch.
func TestDecodeEpochAliasingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	enc := testEpoch(rng, 0)
	p := EncodeEpoch(enc)
	got, err := DecodeEpochFrame(0, p)
	if err != nil {
		t.Fatal(err)
	}
	p[epochHdrSize] ^= 0xff
	if got.Buf[0] != p[epochHdrSize] {
		t.Fatal("DecodeEpochFrame no longer aliases the payload; update the ownership docs and retention-site audit")
	}

	// Two frames read from one stream must not share backing memory.
	var stream bytes.Buffer
	e0, e1 := testEpoch(rng, 0), testEpoch(rng, 1)
	stream.Write(AppendFrame(nil, KindEpoch, 0, EncodeEpoch(e0)))
	stream.Write(AppendFrame(nil, KindEpoch, 0, EncodeEpoch(e1)))
	_, _, p0, err := ReadFrameFlags(&stream)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := DecodeEpochFrame(0, p0)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]byte(nil), d0.Buf...)
	if _, _, _, err := ReadFrameFlags(&stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(keep, d0.Buf) {
		t.Fatal("reading the next frame mutated a retained epoch's Buf")
	}

	// The compressed path inflates into fresh memory: never aliases.
	big := testEpoch(rng, 2)
	big.Buf = bytes.Repeat([]byte("aliascheck"), 200)
	cp := append([]byte(nil), flatePayload(big)...)
	dc, err := DecodeEpochFrame(FlagCompressed, cp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cp {
		cp[i] = 0
	}
	if !bytes.Equal(dc.Buf, big.Buf) {
		t.Fatal("compressed decode aliases the wire payload")
	}
}

func TestCompressedEpochRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		want := testEpoch(rng, uint64(i))
		// Make it compressible: repeat a motif (and rebound the counts to
		// the new buf).
		motif := append([]byte(nil), want.Buf[:10]...)
		want.Buf = bytes.Repeat(motif, 8+rng.Intn(64))
		want.TxnCount, want.EntryCount = 1+rng.Intn(8), 1+rng.Intn(64)
		p := flatePayload(want)
		if p == nil {
			t.Fatalf("epoch %d: repetitive buf did not compress", i)
		}
		if len(p) >= epochHdrSize+len(want.Buf) {
			t.Fatalf("epoch %d: compressed payload not smaller (%d vs %d)", i, len(p), epochHdrSize+len(want.Buf))
		}
		got, err := DecodeEpochFrame(FlagCompressed, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != want.Seq || got.TxnCount != want.TxnCount ||
			got.EntryCount != want.EntryCount || got.LastTxnID != want.LastTxnID ||
			got.LastCommitTS != want.LastCommitTS || got.FirstLSN != want.FirstLSN ||
			!bytes.Equal(got.Buf, want.Buf) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
	// Incompressible input (random bytes): the flate form falls back to
	// the raw frame.
	inc := testEpoch(rng, 100)
	inc.Buf = make([]byte, 4096)
	rng.Read(inc.Buf)
	if p := flatePayload(inc); p != nil {
		t.Fatalf("random buf claimed compressible: %d vs %d", len(p), epochHdrSize+len(inc.Buf))
	}
}

func TestCorruptCompressedEpochIsErrCorruptNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	enc := testEpoch(rng, 7)
	enc.Buf = bytes.Repeat([]byte("payload"), 300)
	good := append([]byte(nil), flatePayload(enc)...)

	// Every single-byte corruption of the flate stream surfaces as
	// ErrCorrupt — from the decoder, or from bufCRC when the damaged stream
	// still inflates to bufLen bytes — unless it lands in bits the decoder
	// never reads, and then the epoch comes back intact.
	for off := epochHdrSize; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		got, err := DecodeEpochFrame(FlagCompressed, bad)
		if err != nil && !errors.Is(err, ErrCorrupt) || err == nil && !bytes.Equal(got.Buf, enc.Buf) {
			t.Fatalf("offset %d: got %v, want ErrCorrupt or the original buf", off, err)
		}
	}
	// A bufCRC that does not match the inflated bytes.
	bad := append([]byte(nil), good...)
	bad[36] ^= 0x01
	if _, err := DecodeEpochFrame(FlagCompressed, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong bufCRC: %v", err)
	}
	// Truncations.
	for _, cut := range []int{epochHdrSize, epochHdrSize + 1, len(good) - 1} {
		if _, err := DecodeEpochFrame(FlagCompressed, good[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
	// Declared raw length shorter than the stream inflates to.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[32:], uint32(len(enc.Buf)-1))
	if _, err := DecodeEpochFrame(FlagCompressed, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short declared length: %v", err)
	}
	// And longer.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[32:], uint32(len(enc.Buf)+1))
	if _, err := DecodeEpochFrame(FlagCompressed, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("long declared length: %v", err)
	}
	// Unknown flag bits are rejected outright.
	if _, err := DecodeEpochFrame(0x02, good); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown flags: %v", err)
	}
}

// swapBody returns enc's compressed EPOCH frame with its flate body
// replaced by a valid deflate stream of other bytes of the same raw
// length, under the original epoch header and a resealed frame CRC: what
// an inflate bug delivering wrong bytes looks like to DecodeEpochFrame.
func swapBody(enc *epoch.Encoded) []byte {
	other := append([]byte(nil), enc.Buf...)
	other[len(other)/2] ^= 0xff
	body, _ := deflateBody(other)
	return AppendFrame(nil, KindEpoch, FlagCompressed, append(appendEpochHdr(nil, enc), body...))
}

// TestSwappedFlateBodyFailsBufCRC is the inflate-bug case: a compressed
// body that passes the frame CRC and inflates cleanly to the claimed
// length, but to the wrong bytes. Only bufCRC refuses it.
func TestSwappedFlateBodyFailsBufCRC(t *testing.T) {
	enc := primary.New(workload.NewTPCC(2), 42).GenerateEncoded(16, 16)[0]
	_, flags, payload, err := ReadFrameFlags(bytes.NewReader(swapBody(&enc)))
	if err != nil {
		t.Fatalf("resealed frame: %v", err)
	}
	got, err := inflate(payload[epochHdrSize:], len(enc.Buf))
	if err != nil || bytes.Equal(got, enc.Buf) {
		t.Fatalf("swapped body must inflate cleanly to other bytes (err %v)", err)
	}
	if _, err := DecodeEpochFrame(flags, payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped body: got %v, want ErrCorrupt", err)
	}
}

// TestEpochLSNsCrossTheWire: entries carry no LSN, so a shipped epoch's
// numbering rides in its header's firstLSN. After a raw and a compressed
// frame round trip, Decode numbers every entry exactly as it does on the
// primary, and the epochs still share one dense LSN space.
func TestEpochLSNsCrossTheWire(t *testing.T) {
	encs := primary.New(workload.NewTPCC(2), 5).GenerateEncoded(48, 16)
	next := uint64(1)
	for i := range encs {
		want, err := encs[i].Decode()
		if err != nil {
			t.Fatal(err)
		}
		if encs[i].FirstLSN != next {
			t.Fatalf("epoch %d starts at LSN %d, want %d", i, encs[i].FirstLSN, next)
		}
		next += uint64(2*encs[i].TxnCount + encs[i].EntryCount)
		for _, compressed := range []bool{false, true} {
			_, flags, payload, err := ReadFrameFlags(bytes.NewReader(NewFrame(&encs[i]).wire(compressed, new(metrics.Counter))))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeEpochFrame(flags, payload)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				for k := range want[j].Entries {
					if g, w := got[j].Entries[k].LSN, want[j].Entries[k].LSN; g != w || w == 0 {
						t.Fatalf("epoch %d txn %d entry %d (compressed=%v): LSN %d, want %d", i, j, k, compressed, g, w)
					}
				}
			}
		}
	}
}

// TestFlippedEntryByteFailsFrameCRC: wal entries carry no checksum of
// their own, so a flipped byte anywhere in an epoch's entry region — the
// raw entries, or the flate stream of a compressed frame — must fail the
// frame CRC before anything decodes it.
func TestFlippedEntryByteFailsFrameCRC(t *testing.T) {
	enc := primary.New(workload.NewBusTracker(), 42).GenerateEncoded(8, 8)[0]
	for _, compressed := range []bool{false, true} {
		frame := NewFrame(&enc).wire(compressed, new(metrics.Counter))
		if got := frame[3]&FlagCompressed != 0; got != compressed {
			t.Fatalf("compressed=%v: built a frame with flags 0x%02x", compressed, frame[3])
		}
		for off := frameHdrSize + epochHdrSize; off < len(frame)-4; off++ {
			bad := append([]byte(nil), frame...)
			bad[off] ^= 0x01
			if _, _, _, err := ReadFrameFlags(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("compressed=%v: flip at %d: got %v, want ErrCorrupt", compressed, off, err)
			}
		}
	}
}

func TestBackoffSaturatesAtHighRetryCounts(t *testing.T) {
	base, max := 25*time.Millisecond, time.Second
	prev := time.Duration(0)
	for retry := 0; retry <= 200; retry++ {
		d := Backoff(base, max, retry)
		if d <= 0 {
			t.Fatalf("retry %d: non-positive delay %v (hot reconnect loop)", retry, d)
		}
		if d > max {
			t.Fatalf("retry %d: delay %v exceeds max %v", retry, d, max)
		}
		if d < prev {
			t.Fatalf("retry %d: delay %v below previous %v (overflow wrap)", retry, d, prev)
		}
		prev = d
	}
	for _, tc := range []struct {
		base, max time.Duration
		retry     int
		want      time.Duration
	}{
		{25 * time.Millisecond, time.Second, 0, 25 * time.Millisecond},
		{25 * time.Millisecond, time.Second, 3, 200 * time.Millisecond},
		{25 * time.Millisecond, time.Second, 5, 800 * time.Millisecond},
		{25 * time.Millisecond, time.Second, 6, time.Second},
		// The exact shifts that used to wrap: 25ms<<40 wrapped to a
		// positive value above max (caught), 25ms<<45 to garbage, and
		// retry ≥ 64 shifted to zero — all must saturate.
		{25 * time.Millisecond, time.Second, 40, time.Second},
		{25 * time.Millisecond, time.Second, 45, time.Second},
		{25 * time.Millisecond, time.Second, 64, time.Second},
		{25 * time.Millisecond, time.Second, 1 << 20, time.Second},
		// Huge max: wrapped-positive-below-max was the nastiest case.
		{time.Millisecond, 1 << 62, 62, 1 << 62},
		{time.Millisecond, 1 << 62, 100, 1 << 62},
		{time.Second, time.Second, 10, time.Second},
		{0, time.Second, 10, time.Second},
	} {
		if got := Backoff(tc.base, tc.max, tc.retry); got != tc.want {
			t.Fatalf("Backoff(%v, %v, %d) = %v, want %v", tc.base, tc.max, tc.retry, got, tc.want)
		}
	}
}
