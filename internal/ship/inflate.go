package ship

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// A DEFLATE (RFC 1951) decoder for one whole compressed EPOCH buf held
// in memory. It is the receive side's only inflate path: every epoch is
// decoded straight into one freshly allocated buffer of the header's
// raw length, with match copies reading that buffer itself — no window
// ring, no copy-out, no per-byte reader calls. Its accept/reject
// decisions and its output are compress/flate's: the same Huffman-code
// validation (over-subscribed and incomplete codes refused, a single
// one-bit code accepted), the same invalid symbols, the same distance
// check, and bytes after the final block ignored.

var (
	errInflateTruncated = errors.New("truncated deflate stream")
	errInflateInvalid   = errors.New("invalid deflate stream")
	errInflateLong      = errors.New("deflate stream longer than header claims")
	errInflateShort     = errors.New("deflate stream shorter than header claims")
)

const (
	litBits  = 10 // index bits of the literal/length table's first level
	distBits = 8  // index bits of the distance table's first level
	clenBits = 7  // code-length codes are at most 7 bits: one level

	maxCodeLen = 15
	maxNumLit  = 286 // literal/length codes a dynamic block may declare
	maxNumDist = 30  // distance codes a dynamic block may declare

	// Codes longer than a table's first level continue in a second-level
	// table of 2^(longest-first) entries per first-level prefix. A code
	// that passes the completeness check is a full binary tree, so each
	// such prefix roots at least two codes: at most half the symbols.
	litTableSize  = 1<<litBits + 288/2<<(maxCodeLen-litBits)
	distTableSize = 1<<distBits + 32/2<<(maxCodeLen-distBits)
)

// A table entry packs, from the least significant bit: the code length
// (8 bits), an extra-bit count (4 bits), three flags, and a 16-bit
// value — the literal byte, the length or distance base, the
// code-length symbol, or, for a link, the second-level table's offset
// (with the extra-bit count holding its index bits).
const (
	entLit  = 1 << 12
	entEOB  = 1 << 13
	entLink = 1 << 14
	// badCode marks a bit pattern no valid symbol owns; as a code length
	// it exceeds any bit count, so the length check rejects it.
	badCode = 0xff
)

var (
	lenBase = [...]uint32{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [...]uint32{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [...]uint32{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [...]uint32{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeOrder is the order a dynamic header lists code-length code lengths in.
	codeOrder = [...]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// Per-symbol entries without the code length. Literal/length symbols
// 286 and 287 and distance symbols 30 and 31 have codes in the fixed
// block's trees but mean nothing: decoding one is corrupt.
var (
	litVals  [288]uint32
	distVals [32]uint32
	clenVals [19]uint32

	fixedLit  [litTableSize]uint32
	fixedDist [distTableSize]uint32
)

func init() {
	for s := range litVals {
		switch {
		case s < 256:
			litVals[s] = uint32(s)<<16 | entLit
		case s == 256:
			litVals[s] = entEOB
		case s < 257+len(lenBase):
			litVals[s] = lenBase[s-257]<<16 | lenExtra[s-257]<<8
		default:
			litVals[s] = badCode
		}
	}
	for s := range distVals {
		distVals[s] = badCode
		if s < len(distBase) {
			distVals[s] = distBase[s]<<16 | distExtra[s]<<8
		}
	}
	for s := range clenVals {
		clenVals[s] = uint32(s) << 16
	}
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	buildTable(fixedLit[:], litBits, lens[:], litVals[:])
	for s := range lens[:32] {
		lens[s] = 5
	}
	buildTable(fixedDist[:], distBits, lens[:32], distVals[:])
}

// buildTable fills t with the lookup table of the canonical Huffman code
// in which symbol s has code length lengths[s] (0: unused) and entry
// vals[s], indexed by the stream's next rootBits bits. It refuses what
// compress/flate refuses — over-subscribed codes and incomplete ones
// other than a single code of length 1 — and builds an all-zero code as
// a table of bad entries, which is legal until a symbol is decoded.
func buildTable(t []uint32, rootBits uint, lengths []uint8, vals []uint32) bool {
	var count, next [maxCodeLen + 1]uint32
	maxLen := uint(0)
	for _, l := range lengths {
		count[l]++
		maxLen = max(maxLen, uint(l))
	}
	code := uint32(0)
	for l := uint(1); l <= maxLen; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
	}
	if maxLen > 0 && code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return false
	}
	root := t[:1<<rootBits]
	for i := range root {
		root[i] = badCode
	}
	subBits := uint(0)
	if maxLen > rootBits {
		subBits = maxLen - rootBits
	}
	off := uint32(len(root))
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		r := uint32(bits.Reverse16(uint16(next[l]))) >> (16 - l)
		next[l]++
		e := vals[s] | uint32(l)
		if uint(l) <= rootBits {
			for i := r; i < uint32(len(root)); i += 1 << l {
				root[i] = e
			}
			continue
		}
		p := r & (1<<rootBits - 1)
		if root[p]&entLink == 0 {
			root[p] = off<<16 | uint32(subBits)<<8 | entLink
			off += 1 << subBits
		}
		sub := t[root[p]>>16 : root[p]>>16+1<<subBits]
		for i := r >> rootBits; i < uint32(len(sub)); i += 1 << (uint(l) - rootBits) {
			sub[i] = e
		}
	}
	return true
}

// inflater is one decode's state: the bit reader over the compressed
// body, the output, and the tables of the current dynamic block.
// Pooled for its tables; the output buffer is never reused.
type inflater struct {
	src []byte
	in  int    // next unread byte of src
	b   uint64 // buffered bits, next bit least significant
	nb  uint   // valid bits in b; bits above them are zero or src[in]'s

	out []byte // out[:pos] is decoded; len(out) ≤ n
	pos int
	n   int

	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	clen [1 << clenBits]uint32
	lens [maxNumLit + maxNumDist]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decodes the DEFLATE stream src, which must produce exactly n
// bytes, into one freshly allocated buffer of length n. The buffer
// starts at min(n, max(maxPrealloc, 8·len(src))) bytes and grows
// toward n only as output fills it, so a length claim the stream does
// not back costs one bounded allocation, not n.
func inflate(src []byte, n int) ([]byte, error) {
	f := inflaters.Get().(*inflater)
	f.src, f.in, f.b, f.nb = src, 0, 0, 0
	f.out, f.pos, f.n = make([]byte, min(n, max(maxPrealloc, 8*len(src)))), 0, n
	err := f.decode()
	out, pos := f.out, f.pos
	f.src, f.out = nil, nil
	inflaters.Put(f)
	if err != nil {
		return nil, err
	}
	if pos != n {
		return nil, errInflateShort
	}
	return out, nil
}

// decode runs blocks through the final one.
func (f *inflater) decode() error {
	for {
		hdr, ok := f.bits(3)
		if !ok {
			return errInflateTruncated
		}
		var err error
		switch hdr >> 1 {
		case 0:
			err = f.stored()
		case 1:
			err = f.huffman(&fixedLit, &fixedDist)
		case 2:
			if err = f.dynamicTables(); err == nil {
				err = f.huffman(&f.lit, &f.dist)
			}
		default:
			err = errInflateInvalid
		}
		if err != nil || hdr&1 != 0 {
			return err
		}
	}
}

// refill tops b up to at least 56 valid bits, or to all src has left.
func (f *inflater) refill() {
	if f.in+8 <= len(f.src) {
		f.b |= binary.LittleEndian.Uint64(f.src[f.in:]) << f.nb
		f.in += int(63-f.nb) >> 3
		f.nb |= 56
		return
	}
	for f.nb <= 56 && f.in < len(f.src) {
		f.b |= uint64(f.src[f.in]) << f.nb
		f.in++
		f.nb += 8
	}
}

// bits takes the next k ≤ 32 bits; ok is false when src ran out.
func (f *inflater) bits(k uint) (v uint64, ok bool) {
	if f.nb < k {
		if f.refill(); f.nb < k {
			return 0, false
		}
	}
	v = f.b & (1<<k - 1)
	f.b >>= k
	f.nb -= k
	return v, true
}

// grow makes room for need more bytes after pos: the output doubles,
// capped at n, so its size tracks the bytes actually decoded.
func (f *inflater) grow(need int) error {
	if need > f.n-f.pos {
		return errInflateLong
	}
	out := make([]byte, min(f.n, max(2*len(f.out), f.pos+need)))
	copy(out, f.out[:f.pos])
	f.out = out
	return nil
}

// stored copies an uncompressed block: byte-aligned LEN, NLEN = ^LEN,
// then LEN bytes.
func (f *inflater) stored() error {
	f.nb -= f.nb & 7
	f.in -= int(f.nb >> 3)
	f.b, f.nb = 0, 0
	if len(f.src)-f.in < 4 {
		return errInflateTruncated
	}
	size := int(binary.LittleEndian.Uint16(f.src[f.in:]))
	if uint16(size) != ^binary.LittleEndian.Uint16(f.src[f.in+2:]) {
		return errInflateInvalid
	}
	f.in += 4
	if len(f.src)-f.in < size {
		return errInflateTruncated
	}
	if size > len(f.out)-f.pos {
		if err := f.grow(size); err != nil {
			return err
		}
	}
	f.pos += copy(f.out[f.pos:], f.src[f.in:f.in+size])
	f.in += size
	return nil
}

// dynamicTables reads a dynamic block's header into f.lit and f.dist.
func (f *inflater) dynamicTables() error {
	h, ok := f.bits(14)
	if !ok {
		return errInflateTruncated
	}
	nlit, ndist, nclen := int(h&0x1f)+257, int(h>>5&0x1f)+1, int(h>>10)+4
	if nlit > maxNumLit || ndist > maxNumDist {
		return errInflateInvalid
	}
	var clens [len(codeOrder)]uint8
	for _, s := range codeOrder[:nclen] {
		v, ok := f.bits(3)
		if !ok {
			return errInflateTruncated
		}
		clens[s] = uint8(v)
	}
	if !buildTable(f.clen[:], clenBits, clens[:], clenVals[:]) {
		return errInflateInvalid
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if f.nb < clenBits {
			f.refill()
		}
		e := f.clen[f.b&(1<<clenBits-1)]
		l := uint(e & 0xff)
		if l > f.nb {
			return errInflateTruncated
		}
		f.b >>= l
		f.nb -= l
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3–6 times, 17 and 18 repeat
		// zero 3–10 and 11–138 times.
		rep, k, v := 3, uint(2), uint8(0)
		switch sym {
		case 16:
			if i == 0 {
				return errInflateInvalid
			}
			v = lens[i-1]
		case 17:
			k = 3
		default:
			rep, k = 11, 7
		}
		x, ok := f.bits(k)
		if !ok {
			return errInflateTruncated
		}
		rep += int(x)
		if rep > len(lens)-i {
			return errInflateInvalid
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !buildTable(f.lit[:], litBits, lens[:nlit], litVals[:]) ||
		!buildTable(f.dist[:], distBits, lens[nlit:], distVals[:]) {
		return errInflateInvalid
	}
	return nil
}

// huffman decodes one Huffman-coded block's symbols through its end of
// block, with the bit buffer and output position in locals.
func (f *inflater) huffman(lt *[litTableSize]uint32, dt *[distTableSize]uint32) error {
	src, in, b, nb := f.src, f.in, f.b, f.nb
	out, pos := f.out, f.pos
	for {
		// One literal/length and distance pair takes at most 48 bits.
		if nb < 48 {
			if in+8 <= len(src) {
				b |= binary.LittleEndian.Uint64(src[in:]) << nb
				in += int(63-nb) >> 3
				nb |= 56
			} else {
				for nb <= 56 && in < len(src) {
					b |= uint64(src[in]) << nb
					in++
					nb += 8
				}
			}
		}
		e := lt[b&(1<<litBits-1)]
		if e&entLink != 0 {
			e = lt[e>>16+uint32(b>>litBits)&(1<<(e>>8&0xf)-1)]
		}
		l := uint(e & 0xff)
		if l > nb {
			return errInflateTruncated
		}
		b >>= l
		nb -= l
		if e&entLit != 0 {
			if pos >= len(out) {
				f.pos = pos
				if err := f.grow(1); err != nil {
					return err
				}
				out = f.out
			}
			out[pos] = byte(e >> 16)
			pos++
			continue
		}
		if e&entEOB != 0 {
			f.in, f.b, f.nb, f.pos = in, b, nb, pos
			return nil
		}
		x := uint(e >> 8 & 0xf)
		if x > nb {
			return errInflateTruncated
		}
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x

		e = dt[b&(1<<distBits-1)]
		if e&entLink != 0 {
			e = dt[e>>16+uint32(b>>distBits)&(1<<(e>>8&0xf)-1)]
		}
		l = uint(e & 0xff)
		if l > nb {
			return errInflateTruncated
		}
		b >>= l
		nb -= l
		x = uint(e >> 8 & 0xf)
		if x > nb {
			return errInflateTruncated
		}
		dist := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x
		if dist > pos {
			return errInflateInvalid
		}
		if length > len(out)-pos {
			f.pos = pos
			if err := f.grow(length); err != nil {
				return err
			}
			out = f.out
		}
		s := pos - dist
		// Short matches copy in 8-byte words: each word's source is
		// final once dist ≥ 8, and the up to 7 bytes written past the
		// match are output still to come.
		if dist >= 8 && length <= 64 && length+8 <= len(out)-pos {
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[pos+i:], binary.LittleEndian.Uint64(out[s+i:]))
			}
			pos += length
			continue
		}
		if dist >= length {
			pos += copy(out[pos:pos+length], out[s:])
			continue
		}
		// Overlapping: each copy doubles the run it can read from.
		for end := pos + length; pos < end; {
			pos += copy(out[pos:end], out[s:pos])
		}
	}
}
