package ship

import (
	"bytes"
	// compress/flate's streaming reader is the differential oracle for
	// the in-tree decoder; no product path inflates through it.
	oracle "compress/flate"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"aets/internal/primary"
	"aets/internal/workload"
)

// stdInflate decodes body through compress/flate under inflate's
// contract: accepted only when the stream ends cleanly after exactly n
// bytes. got holds what the reader delivered either way.
func stdInflate(body []byte, n int) (got []byte, ok bool) {
	got, err := io.ReadAll(io.LimitReader(oracle.NewReader(bytes.NewReader(body)), int64(n)+1))
	return got, err == nil && len(got) == n
}

// checkInflate asserts inflate agrees with compress/flate on body
// claimed to inflate to n bytes: both refuse, or both return the same n
// bytes. A claim beyond the decoder's first buffer must not be
// allocated ahead of the output that backs it.
func checkInflate(t *testing.T, body []byte, n int) {
	t.Helper()
	want, ok := stdInflate(body, n)
	var got []byte
	var err error
	if first := max(maxPrealloc, 8*len(body)); n > first {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err = inflate(body, n)
		runtime.ReadMemStats(&after)
		// The first buffer, doublings behind the delivered output (which
		// can outrun it by one stored block), and slack for the decoder.
		limit := uint64(first + 4*(len(want)+1<<16) + 1<<20)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("claim of %d bytes over a %d-byte body delivering %d: allocated %d, limit %d",
				n, len(body), len(want), grew, limit)
		}
	} else {
		got, err = inflate(body, n)
	}
	switch {
	case ok && err != nil:
		t.Fatalf("compress/flate accepts %d bytes, inflate refuses: %v", n, err)
	case !ok && err == nil:
		t.Fatalf("compress/flate refuses a %d-byte claim, inflate accepts it", n)
	case ok && !bytes.Equal(got, want):
		t.Fatalf("inflate and compress/flate decode different %d bytes", n)
	}
}

// bitWriter packs a DEFLATE stream by hand, least significant bit first.
type bitWriter struct {
	out []byte
	b   uint64
	nb  uint
}

func (w *bitWriter) bits(v uint64, k uint) *bitWriter {
	w.b |= v << w.nb
	for w.nb += k; w.nb >= 8; w.nb -= 8 {
		w.out = append(w.out, byte(w.b))
		w.b >>= 8
	}
	return w
}

// code writes a Huffman code, which DEFLATE packs most significant bit
// first.
func (w *bitWriter) code(c uint16, l uint8) *bitWriter {
	return w.bits(uint64(bits.Reverse16(c)>>(16-l)), uint(l))
}

func (w *bitWriter) bytes() []byte {
	if w.nb > 0 {
		return append(w.out, byte(w.b))
	}
	return w.out
}

// canonical assigns the canonical Huffman codes of lengths (RFC 1951
// §3.2.2).
func canonical(lengths []uint8) []uint16 {
	var count, next [16]uint16
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint16, len(lengths))
	for s, l := range lengths {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynamicHeader writes a final dynamic block's header declaring the
// literal/length code lit and distance code dist, each length sent
// through a code-length code that gives symbols 0–15 four bits each.
func dynamicHeader(w *bitWriter, lit, dist []uint8) {
	w.bits(1, 1).bits(2, 2).bits(uint64(len(lit)-257), 5).bits(uint64(len(dist)-1), 5).bits(15, 4)
	for _, s := range codeOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		w.code(uint16(l), 4)
	}
}

// inflateCase is one body and the raw length claimed for it; valid
// marks the crafted streams built to decode.
type inflateCase struct {
	body  []byte
	n     int
	valid bool
}

// craftedStreams are hand-packed blocks on the edges of code validation.
func craftedStreams() []inflateCase {
	var cases []inflateCase
	// Literal 'a' (1 bit), end of block and length 3 (2 bits each), over
	// a distance code of a single one-bit code: "a" then a 3-byte match
	// at distance 1 decodes "aaaa". The same stream taking the distance
	// code's unused bit pattern is corrupt.
	lit := make([]uint8, 258)
	lit['a'], lit[256], lit[257] = 1, 2, 2
	lc := canonical(lit)
	for _, distBit := range []uint16{0, 1} {
		w := new(bitWriter)
		dynamicHeader(w, lit, []uint8{1})
		w.code(lc['a'], 1).code(lc[257], 2).bits(uint64(distBit), 1).code(lc[256], 2)
		cases = append(cases, inflateCase{w.bytes(), 4, distBit == 0})
	}
	// Over-subscribed and incomplete literal/length codes, an incomplete
	// distance code, and an empty distance code a literal-only block
	// never touches (legal).
	over := make([]uint8, 257)
	over['a'], over['b'], over[256] = 1, 1, 1
	short := make([]uint8, 257)
	short['a'], short[256] = 1, 2
	litOnly := make([]uint8, 257)
	litOnly['a'], litOnly[256] = 1, 1
	loc := canonical(litOnly)
	for _, c := range []struct {
		lit, dist []uint8
		valid     bool
	}{{over, []uint8{0}, false}, {short, []uint8{0}, false}, {litOnly, []uint8{2, 2}, false}, {litOnly, []uint8{0}, true}} {
		w := new(bitWriter)
		dynamicHeader(w, c.lit, c.dist)
		w.code(loc['a'], 1).code(loc[256], 1)
		cases = append(cases, inflateCase{w.bytes(), 1, c.valid})
	}
	// A code-length sequence opening with 16 ("repeat the previous
	// length") has nothing to repeat: corrupt, though the rest would
	// decode "a". Code-length code: 16 → 0, 0 → 10, 1 → 11.
	w := new(bitWriter).bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(14, 4)
	clen := map[int]uint8{16: 1, 0: 2, 1: 2}
	for _, s := range codeOrder[:18] {
		w.bits(uint64(clen[s]), 3)
	}
	w.code(0, 1).bits(0, 2)
	for i := 3; i < 258; i++ {
		if i == 'a' || i == 256 {
			w.code(3, 2)
		} else {
			w.code(2, 2)
		}
	}
	w.code(0, 1).code(1, 1)
	cases = append(cases, inflateCase{w.bytes(), 1, false})
	// Fixed blocks: 'h', 'i', end of block; and "abcde", a 10-byte match
	// at distance 5 (overlapping, with room after it), "123456789".
	w = new(bitWriter).bits(1, 1).bits(1, 2)
	w.code(0x30+'h', 8).code(0x30+'i', 8).code(0, 7)
	cases = append(cases, inflateCase{w.bytes(), 2, true})
	w = new(bitWriter).bits(1, 1).bits(1, 2)
	for _, c := range "abcde" {
		w.code(0x30+uint16(c), 8)
	}
	w.code(264-256, 7).code(4, 5).bits(0, 1)
	for _, c := range "123456789" {
		w.code(0x30+uint16(c), 8)
	}
	w.code(0, 7)
	cases = append(cases, inflateCase{w.bytes(), 24, true})
	// A stored block whose NLEN is not ^LEN, and one that is cut short.
	cases = append(cases,
		inflateCase{[]byte{1, 3, 0, 0xfc, 0xfe, 'a', 'b', 'c'}, 3, false},
		inflateCase{[]byte{1, 3, 0, 0xfc, 0xff, 'a', 'b'}, 3, false})
	return cases
}

// leveledStreams deflates buf at every compress/flate level,
// Huffman-only, and with the in-tree encoder.
func leveledStreams(buf []byte) []inflateCase {
	var cases []inflateCase
	for level := oracle.HuffmanOnly; level <= oracle.BestCompression; level++ {
		if level == oracle.DefaultCompression {
			continue
		}
		var z bytes.Buffer
		fw, _ := oracle.NewWriter(&z, level)
		fw.Write(buf)
		fw.Close()
		cases = append(cases, inflateCase{body: z.Bytes(), n: len(buf)})
	}
	body, _ := deflateBody(buf)
	return append(cases, inflateCase{body: body, n: len(buf)})
}

// inflateSeeds are FuzzInflate's corpus: stored, fixed and dynamic
// blocks at every level and from the in-tree encoder, the crafted code
// edges, a stream cut at every byte, claims one off either way, and a
// frame lying about its length.
func inflateSeeds() []inflateCase {
	// Kilobyte bodies: the fuzz engine slows to a crawl on larger ones.
	buf := primary.New(workload.NewBusTracker(), 42).GenerateEncoded(64, 64)[0].Buf[:1024]
	cases := append(leveledStreams(buf), craftedStreams()...)
	cases = append(cases, leveledStreams([]byte("hello, hello, hello"))...)
	small := leveledStreams(buf[:256])[2] // BestSpeed: one dynamic block
	for cut := range small.body {
		cases = append(cases, inflateCase{body: small.body[:cut], n: small.n})
	}
	for _, n := range []int{small.n - 1, small.n + 1, 0x0fffffff} {
		cases = append(cases, inflateCase{body: small.body, n: n})
	}
	return cases
}

// FuzzInflate checks the in-tree decoder against compress/flate on
// arbitrary bodies and claimed lengths.
func FuzzInflate(f *testing.F) {
	for _, c := range inflateSeeds() {
		f.Add(c.body, uint32(c.n))
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint32) {
		checkInflate(t, body, int(n))
	})
}

// TestInflateMatchesStdlib runs the differential over the fuzz corpus,
// over whole TPC-C and BusTracker epochs at every level (all of which
// must decode), and over random damage to the corpus in a plain
// `go test` run.
func TestInflateMatchesStdlib(t *testing.T) {
	seeds := inflateSeeds()
	for _, c := range seeds {
		checkInflate(t, c.body, c.n)
	}
	for i, c := range craftedStreams() {
		if _, err := inflate(c.body, c.n); (err == nil) != c.valid {
			t.Fatalf("crafted stream %d: inflate error %v, want valid=%v", i, err, c.valid)
		}
	}
	for _, enc := range []struct {
		gen        workload.Generator
		txns, size int
	}{{workload.NewTPCC(2), 512, 512}, {workload.NewBusTracker(), 256, 256}} {
		buf := primary.New(enc.gen, 7).GenerateEncoded(enc.txns, enc.size)[0].Buf
		for _, c := range leveledStreams(buf) {
			got, err := inflate(c.body, c.n)
			if err != nil || !bytes.Equal(got, buf) {
				t.Fatalf("%T epoch: inflate %v, equal %v", enc.gen, err, bytes.Equal(got, buf))
			}
		}
	}
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 20000; trial++ {
		c := seeds[rng.Intn(len(seeds))]
		body := append([]byte(nil), c.body...)
		if len(body) == 0 {
			continue
		}
		for m := 0; m < 1+rng.Intn(3); m++ {
			body[rng.Intn(len(body))] ^= byte(1 + rng.Intn(255))
		}
		checkInflate(t, body, c.n)
	}
}

// TestDecodeEpochFrameAllocs pins the compressed decode at two
// allocations: the Encoded and its buffer.
func TestDecodeEpochFrameAllocs(t *testing.T) {
	enc := primary.New(workload.NewTPCC(2), 42).GenerateEncoded(128, 128)[0]
	p := flatePayload(&enc)
	if p == nil {
		t.Fatal("TPC-C epoch did not compress")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeEpochFrame(FlagCompressed, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("%.0f allocations per compressed decode, want ≤ 2", allocs)
	}
}
