package ship

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"aets/internal/epoch"
	"aets/internal/primary"
	"aets/internal/workload"
)

// deflateBody runs one encoder build over src: the size it planned and
// the body it wrote into a buffer of exactly that size.
func deflateBody(src []byte) (body []byte, size int) {
	e := flateEncoders.Get().(*flateEncoder)
	defer flateEncoders.Put(e)
	size = e.plan(src)
	body = make([]byte, size)
	return body[:e.write(body, src)], size
}

// checkDeflate asserts the encoder's body for src is exactly its planned
// size and decodes to src under both compress/flate and inflate, and
// that the frame build ships it exactly when it is smaller than src.
func checkDeflate(t *testing.T, src []byte) {
	t.Helper()
	body, size := deflateBody(src)
	if len(body) != size {
		t.Fatalf("%d-byte input: wrote %d body bytes, planned %d", len(src), len(body), size)
	}
	if got, ok := stdInflate(body, len(src)); !ok || !bytes.Equal(got, src) {
		t.Fatalf("%d-byte input: compress/flate does not decode the body to it", len(src))
	}
	if got, err := inflate(body, len(src)); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("%d-byte input: inflate does not decode the body to it: %v", len(src), err)
	}
	enc := &epoch.Encoded{Seq: 1, Buf: src}
	frame := flateEpochFrame(enc)
	switch {
	case size >= len(src) && frame != nil:
		t.Fatalf("%d-byte input: shipped a %d-byte body", len(src), size)
	case size < len(src) && frame == nil:
		t.Fatalf("%d-byte input: refused a %d-byte body", len(src), size)
	case frame != nil && !bytes.Equal(frame, AppendFrame(nil, KindEpoch, FlagCompressed, append(appendEpochHdr(nil, enc), body...))):
		t.Fatalf("%d-byte input: frame is not the headers around the body", len(src))
	}
}

// deflateInputs are the encoder's edge cases, each by name.
func deflateInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(44))
	words := []string{"warehouse", "district", "customer", "order", "stock", " ", "\x00\x01", "item"}
	text := func(n int) []byte {
		var b []byte
		for len(b) < n {
			b = append(b, words[rng.Intn(len(words))]...)
		}
		return b[:n]
	}
	random := make([]byte, 4096)
	rng.Read(random)
	symbols := make([]byte, 20000)
	for i := range symbols {
		symbols[i] = "ACGT"[rng.Intn(4)]
	}
	in := map[string][]byte{
		"run":      bytes.Repeat([]byte{'z'}, 5000),
		"period10": bytes.Repeat([]byte("0123456789"), 3000),
		"4symbols": symbols,
		"random":   random,
		"tpcc2048": primary.New(workload.NewTPCC(2), 9).GenerateEncoded(2048, 2048)[0].Buf,
	}
	for _, n := range []int{0, 1, 15, 16, 17, 512, 65535, 65536, 300000} {
		in[fmt.Sprintf("text%d", n)] = text(n)
	}
	return in
}

// TestDeflateRoundTrips runs checkDeflate over the edge cases and pins
// what each is there for.
func TestDeflateRoundTrips(t *testing.T) {
	in := deflateInputs()
	for name, src := range in {
		t.Run(name, func(t *testing.T) { checkDeflate(t, src) })
	}
	// Shape checks on the token streams the cases are chosen for.
	e := flateEncoders.New().(*flateEncoder)
	longest := func(src []byte) (maxLen, maxDist int) {
		e.plan(src)
		for _, tok := range e.tokens {
			if tok&tokMatch != 0 {
				maxLen = max(maxLen, int(tok>>15&0xff)+3)
				maxDist = max(maxDist, int(tok&(windowSize-1))+1)
			}
		}
		return maxLen, maxDist
	}
	if l, d := longest(in["run"]); l != maxMatch {
		t.Fatalf("one-byte run: longest match %d at distance %d, want %d", l, d, maxMatch)
	}
	tpcc := in["tpcc2048"]
	if _, d := longest(tpcc); len(tpcc) <= 1<<16 || d <= windowSize-windowSize/4 {
		t.Fatalf("TPC-C epoch: %d bytes, farthest distance %d; want > 64 KiB and a distance in the last code", len(tpcc), d)
	}
	if frame := flateEpochFrame(&epoch.Encoded{Buf: in["random"]}); frame != nil {
		t.Fatal("random bytes compressed")
	}
}

// FuzzDeflate checks the encoder on arbitrary input: its body is the
// planned size, both decoders reproduce the input, and the frame build
// refuses the body only when it is not smaller than the input.
func FuzzDeflate(f *testing.F) {
	for _, src := range deflateInputs() {
		f.Add(src[:min(len(src), 2048)])
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkDeflate(t, src)
	})
}

// TestDeflateBuildsIndependent: one encoder building epoch A, then a
// larger epoch B, then A again writes A's bytes both times.
func TestDeflateBuildsIndependent(t *testing.T) {
	a := primary.New(workload.NewTPCC(2), 3).GenerateEncoded(128, 128)[0].Buf
	b := primary.New(workload.NewBusTracker(), 4).GenerateEncoded(4096, 4096)[0].Buf
	if len(b) <= len(a) {
		t.Fatalf("epoch B (%d bytes) is not larger than A (%d)", len(b), len(a))
	}
	e := flateEncoders.New().(*flateEncoder)
	build := func(src []byte) []byte {
		out := make([]byte, e.plan(src))
		return out[:e.write(out, src)]
	}
	first := build(a)
	build(b)
	if again := build(a); !bytes.Equal(first, again) {
		t.Fatal("epoch A deflates to different bytes after epoch B")
	}
}

// TestFlateEpochFrameAllocs pins a compressed frame build at one
// allocation, the frame, once the pooled encoder is warm.
func TestFlateEpochFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomises sync.Pool caching; alloc counts are meaningless")
	}
	enc := primary.New(workload.NewTPCC(2), 42).GenerateEncoded(128, 128)[0]
	if flateEpochFrame(&enc) == nil {
		t.Fatal("TPC-C epoch did not compress")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if flateEpochFrame(&enc) == nil {
			t.Fatal("TPC-C epoch did not compress")
		}
	})
	if allocs > 1 {
		t.Fatalf("%.0f allocations per compressed frame build, want 1", allocs)
	}
}

// TestHuffLengthsLimited: Fibonacci frequencies make the deepest
// unlimited code, one level per symbol. Clamped to the limit, the code
// must still be complete, and frequent symbols never get longer codes
// than rare ones.
func TestHuffLengthsLimited(t *testing.T) {
	var keys [maxNumLit]uint64
	var depth [maxNumLit]uint32
	for _, c := range []struct{ n, limit int }{{30, maxCodeLen}, {19, maxCLenBits}, {maxNumLit, maxCodeLen}, {2, 1}} {
		freq := make([]uint32, c.n)
		a, b := uint32(1), uint32(1)
		for i := range freq {
			freq[i] = a
			if a < 1<<30 {
				a, b = b, a+b
			}
		}
		lens := make([]uint8, c.n)
		huffLengths(freq, lens, c.limit, &keys, &depth)
		kraft := 0
		for s, l := range lens {
			if l == 0 || int(l) > c.limit {
				t.Fatalf("%d symbols, limit %d: symbol %d has length %d", c.n, c.limit, s, l)
			}
			if s > 0 && freq[s] > freq[s-1] && l > lens[s-1] {
				t.Fatalf("%d symbols: symbol %d is more frequent but longer", c.n, s)
			}
			kraft += 1 << (c.limit - int(l))
		}
		if kraft != 1<<c.limit {
			t.Fatalf("%d symbols, limit %d: Kraft sum %d/%d, want a complete code", c.n, c.limit, kraft, 1<<c.limit)
		}
	}
}
