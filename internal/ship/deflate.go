package ship

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// A DEFLATE (RFC 1951) encoder for one whole EPOCH buf held in memory:
// the send side's only deflate path. A build makes one pass over the buf
// that finds matches and counts symbol frequencies, derives one dynamic
// block's length-limited Huffman codes from the counts, sizes the block
// exactly, and — only if it is smaller than the buf — writes it straight
// into the frame. The output is a single final dynamic block any
// RFC 1951 decoder reads; inflate.go is the receive side.

const (
	hashBits   = 14      // index bits of the match finder's position table
	windowSize = 1 << 15 // the farthest back a match may reach
	minMatch   = 4
	maxMatch   = 258

	// A token is a run of n ≥ 1 literals, taken from the buf at write
	// time, or tokMatch | (length-3)<<15 | (distance-1).
	tokMatch = 1 << 31

	// tabOff offsets the positions in the match finder's table so that
	// an empty entry lies beyond the window of every position.
	tabOff = windowSize + 1

	// Code length limits: literal/length and distance codes 15 bits, the
	// code-length code 7.
	maxCLenBits = 7
	numCLen     = 19
)

// lenCode maps length-3 to its length code (0 is symbol 257); distCode
// maps distance-1 below 256 directly and above it by its bits 7 and up,
// at offset 256 — every distance code past 16 spans whole multiples of
// 128.
var (
	lenCode  [maxMatch - 2]uint8
	distCode [512]uint8
)

func init() {
	for c := range lenBase {
		for l := lenBase[c]; l < lenBase[c]+1<<lenExtra[c] && l <= maxMatch; l++ {
			lenCode[l-3] = uint8(c)
		}
	}
	for c := range distBase {
		for d := distBase[c] - 1; d < distBase[c]-1+1<<distExtra[c]; d++ {
			if d < 256 {
				distCode[d] = uint8(c)
			} else {
				distCode[256+d>>7] = uint8(c)
			}
		}
	}
}

func distCodeOf(d uint32) uint32 {
	if d < 256 {
		return uint32(distCode[d])
	}
	return uint32(distCode[256+d>>7])
}

// flateEncoder is one build's state. Pooled for its tables; plan
// resets everything a build reads, so no build sees another's state.
type flateEncoder struct {
	// table holds, per 4-byte hash, the last position seen plus tabOff
	// in its low half and the 4 bytes there in its high half.
	table  [1 << hashBits]uint64
	tokens []uint32

	litFreq  [maxNumLit]uint32
	distFreq [maxNumDist]uint32
	clFreq   [numCLen]uint32
	litLens  [maxNumLit]uint8
	distLens [maxNumDist]uint8
	clLens   [numCLen]uint8
	// Bit-reversed canonical codes, ready to write least significant
	// bit first.
	litCodes  [maxNumLit]uint16
	distCodes [maxNumDist]uint16
	clCodes   [numCLen]uint16

	nlit, ndist, nclen int
	// clToks is the run-length coded sequence of code lengths: a
	// code-length symbol in the low byte, its repeat bits above it.
	clToks []uint16

	keys  [maxNumLit]uint64 // freq<<9 | symbol, sorted by huffLengths
	depth [maxNumLit]uint32
}

var flateEncoders = sync.Pool{New: func() any {
	return &flateEncoder{clToks: make([]uint16, 0, maxNumLit+maxNumDist)}
}}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

func hash4(u uint32) uint32 { return u * 0x1e35a7bd >> (32 - hashBits) }

// plan tokenizes src, builds the block's codes and returns the exact
// size of the compressed body in bytes; write then produces it.
func (e *flateEncoder) plan(src []byte) int {
	e.tokenize(src)
	e.litFreq[256] = 1 // end of block
	huffLengths(e.litFreq[:], e.litLens[:], maxCodeLen, &e.keys, &e.depth)
	huffLengths(e.distFreq[:], e.distLens[:], maxCodeLen, &e.keys, &e.depth)
	e.nlit = lastNonzero(e.litLens[:], 257)
	e.ndist = lastNonzero(e.distLens[:], 1)
	e.codegen()
	huffLengths(e.clFreq[:], e.clLens[:], maxCLenBits, &e.keys, &e.depth)
	e.nclen = 4
	for i, s := range codeOrder {
		if e.clLens[s] != 0 {
			e.nclen = max(e.nclen, i+1)
		}
	}
	canonicalCodes(e.litLens[:e.nlit], e.litCodes[:])
	canonicalCodes(e.distLens[:e.ndist], e.distCodes[:])
	canonicalCodes(e.clLens[:], e.clCodes[:])

	n := 3 + 5 + 5 + 4 + 3*e.nclen
	for _, t := range e.clToks {
		n += int(e.clLens[t&0xff]) + clExtraBits(t&0xff)
	}
	for s, f := range e.litFreq[:e.nlit] {
		n += int(f) * int(e.litLens[s])
	}
	for c, f := range e.litFreq[257:e.nlit] {
		n += int(f) * int(lenExtra[c])
	}
	for c, f := range e.distFreq[:e.ndist] {
		n += int(f) * int(uint32(e.distLens[c])+distExtra[c])
	}
	return (n + 7) >> 3
}

// tokenize fills e.tokens and the literal/length and distance
// frequencies in one greedy pass: each position's 4 bytes are hashed to
// the last position with the same hash; a candidate whose 4 bytes agree
// and that lies within the window becomes a match, extended backward
// into the pending literals and forward 8 bytes at a time.
func (e *flateEncoder) tokenize(src []byte) {
	table, litFreq, distFreq := &e.table, &e.litFreq, &e.distFreq
	clear(table[:])
	clear(litFreq[:])
	clear(distFreq[:])
	toks := e.tokens[:0]
	lit := 0 // first literal not yet in a token
	for s := 0; s+minMatch <= len(src); {
		cur := load32(src, s)
		h := hash4(cur)
		v := table[h]
		table[h] = uint64(cur)<<32 | uint64(s+tabOff)
		cand := int(uint32(v)) - tabOff
		if uint32(v>>32) != cur || uint(s-cand-1) >= windowSize {
			// Step faster through data that keeps missing.
			s += 1 + (s-lit)>>5
			continue
		}
		for s > lit && cand > 0 && src[s-1] == src[cand-1] {
			s--
			cand--
		}
		// Found a match at s; the backward extension can only have
		// grown it, and the forward one is capped at maxMatch overall.
		length := minMatch
		end := min(len(src), s+maxMatch)
		for a, b := cand+minMatch, s+minMatch; ; {
			if b+8 <= end {
				if x := load64(src, a) ^ load64(src, b); x != 0 {
					length += bits.TrailingZeros64(x) >> 3
					break
				}
				a, b, length = a+8, b+8, length+8
				continue
			}
			for b < end && src[a] == src[b] {
				a, b, length = a+1, b+1, length+1
			}
			break
		}
		if s > lit {
			toks = append(toks, uint32(s-lit))
			for _, c := range src[lit:s] {
				litFreq[c]++
			}
		}
		d := uint32(s - cand - 1)
		toks = append(toks, tokMatch|uint32(length-3)<<15|d)
		litFreq[257+uint(lenCode[length-3])]++
		distFreq[distCodeOf(d)]++
		s += length
		lit = s
		// Index the match's last position so a repeat right after it
		// is found.
		if s+minMatch <= len(src) {
			x := load32(src, s-1)
			table[hash4(x)] = uint64(x)<<32 | uint64(s-1+tabOff)
		}
	}
	if lit < len(src) {
		toks = append(toks, uint32(len(src)-lit))
		for _, c := range src[lit:] {
			litFreq[c]++
		}
	}
	e.tokens = toks
}

// lastNonzero returns one past the last nonzero length, at least least.
func lastNonzero(lens []uint8, least int) int {
	for n := len(lens); n > least; n-- {
		if lens[n-1] != 0 {
			return n
		}
	}
	return least
}

// codegen run-length codes the literal/length and distance code lengths
// as one sequence (RFC 1951 §3.2.7) into e.clToks and counts the
// code-length symbols.
func (e *flateEncoder) codegen() {
	clear(e.clFreq[:])
	e.clToks = e.clToks[:0]
	emit := func(sym, rep int) {
		e.clToks = append(e.clToks, uint16(sym|rep<<8))
		e.clFreq[sym]++
	}
	var seq [maxNumLit + maxNumDist]uint8
	lens := append(append(seq[:0], e.litLens[:e.nlit]...), e.distLens[:e.ndist]...)
	for i := 0; i < len(lens); {
		l := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(int(l), 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(l), 0)
		}
	}
}

// clExtraBits is the number of repeat bits after a code-length symbol.
func clExtraBits(sym uint16) int {
	switch sym {
	case 16:
		return 2
	case 17:
		return 3
	case 18:
		return 7
	}
	return 0
}

// huffLengths sets lens to the code lengths of a minimum-redundancy code
// for freq no longer than limit bits (0 for unused symbols). One used
// symbol gets a one-bit code, which RFC 1951 decoders accept. keys and
// depth are working space.
func huffLengths(freq []uint32, lens []uint8, limit int, keys *[maxNumLit]uint64, depth *[maxNumLit]uint32) {
	clear(lens)
	n := 0
	for s, f := range freq {
		if f != 0 {
			keys[n] = uint64(f)<<9 | uint64(s)
			n++
		}
	}
	switch n {
	case 0:
		return
	case 1:
		lens[keys[0]&511] = 1
		return
	}
	k := keys[:n]
	slices.Sort(k)
	a := depth[:n]
	for i, key := range k {
		a[i] = uint32(key >> 9)
	}
	// Moffat and Katajainen's in-place minimum-redundancy code
	// ("In-Place Calculation of Minimum-Redundancy Codes", 1995) over
	// the ascending weights: the first pass pairs nodes, leaving parent
	// pointers; the second turns them into internal node depths; the
	// third turns those into leaf depths, a[0] the deepest.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, d := 1, 0, uint32(0)
	for r, next := n-2, n-1; avail > 0; d++ {
		for r >= 0 && a[r] == d {
			used++
			r--
		}
		for ; avail > used; avail-- {
			a[next] = d
			next--
		}
		avail, used = 2*used, 0
	}
	// Clamp to limit, then restore the Kraft sum: each step drops one
	// code from the limit and splits the deepest shorter one in two.
	var count [maxCodeLen + 1]int
	total := 0
	for _, l := range a {
		l := min(int(l), limit)
		count[l]++
		total += 1 << (limit - l)
	}
	for ; total > 1<<limit; total-- {
		count[limit]--
		for l := limit - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	// The longest codes go to the rarest symbols.
	i := 0
	for l := limit; l > 0; l-- {
		for c := count[l]; c > 0; c-- {
			lens[k[i]&511] = uint8(l)
			i++
		}
	}
}

// canonicalCodes sets codes to the canonical Huffman code of lens (RFC 1951
// §3.2.2), each bit-reversed for least-significant-bit-first writing.
func canonicalCodes(lens []uint8, codes []uint16) {
	var count, next [maxCodeLen + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// bitSink accumulates bits least significant first in acc and stores
// them into dst 8 bytes at a time while dst has room.
type bitSink struct {
	dst []byte
	n   int // bytes stored
	acc uint64
	nb  uint // bits in acc
}

// flushBits stores the whole bytes among acc's nb bits at dst[n:].
func flushBits(dst []byte, n int, acc uint64, nb uint) (int, uint64, uint) {
	if n+8 <= len(dst) {
		binary.LittleEndian.PutUint64(dst[n:], acc)
	} else {
		for i := uint(0); i < nb>>3; i++ {
			dst[n+int(i)] = byte(acc >> (8 * i))
		}
	}
	return n + int(nb>>3), acc >> (nb &^ 7), nb & 7
}

// put appends the k ≤ 32 low bits of v.
func (w *bitSink) put(v uint64, k uint) {
	if w.nb >= 32 {
		w.n, w.acc, w.nb = flushBits(w.dst, w.n, w.acc, w.nb)
	}
	w.acc |= v << w.nb
	w.nb += k
}

// write writes the block planned for src into dst, which holds at least
// the planned size, and returns the number of bytes written.
func (e *flateEncoder) write(dst, src []byte) int {
	w := bitSink{dst: dst}
	// Final block, dynamic codes.
	w.put(1|2<<1, 3)
	w.put(uint64(e.nlit-257), 5)
	w.put(uint64(e.ndist-1), 5)
	w.put(uint64(e.nclen-4), 4)
	for _, s := range codeOrder[:e.nclen] {
		w.put(uint64(e.clLens[s]), 3)
	}
	for _, t := range e.clToks {
		sym := t & 0xff
		w.put(uint64(e.clCodes[sym]), uint(e.clLens[sym]))
		w.put(uint64(t>>8), uint(clExtraBits(sym)))
	}
	w.n, w.acc, w.nb = e.writeTokens(src, dst, w.n, w.acc, w.nb)
	w.put(uint64(e.litCodes[256]), uint(e.litLens[256]))
	w.n, w.acc, w.nb = flushBits(dst, w.n, w.acc, w.nb)
	if w.nb > 0 {
		dst[w.n] = byte(w.acc)
		w.n++
	}
	return w.n
}

// writeTokens writes the block's symbols with the bit buffer in locals.
func (e *flateEncoder) writeTokens(src, dst []byte, n int, acc uint64, nb uint) (int, uint64, uint) {
	// Each length's code and extra bits, as one value and bit count.
	var lenEnc [maxMatch - 2]uint32
	var lenBits [maxMatch - 2]uint8
	for l := range lenEnc {
		c := lenCode[l]
		cl := e.litLens[257+int(c)]
		lenEnc[l] = uint32(e.litCodes[257+int(c)]) | (uint32(l)+3-lenBase[c])<<cl
		lenBits[l] = cl + uint8(lenExtra[c])
	}
	// Each literal's code and its length above it.
	var litEnc [256]uint32
	for c := range litEnc {
		litEnc[c] = uint32(e.litCodes[c]) | uint32(e.litLens[c])<<16
	}
	p := 0
	for _, t := range e.tokens {
		if t&tokMatch == 0 {
			for _, c := range src[p : p+int(t)] {
				if nb >= 48 {
					n, acc, nb = flushBits(dst, n, acc, nb)
				}
				x := litEnc[c]
				acc |= uint64(x&0xffff) << nb
				nb += uint(x >> 16)
			}
			p += int(t)
			continue
		}
		// A match takes at most 20 + 28 bits.
		if nb >= 16 {
			n, acc, nb = flushBits(dst, n, acc, nb)
		}
		l := t >> 15 & 0xff
		acc |= uint64(lenEnc[l]) << nb
		nb += uint(lenBits[l])
		d := t & (windowSize - 1)
		c := distCodeOf(d)
		cl := uint(e.distLens[c])
		acc |= (uint64(e.distCodes[c]) | uint64(d+1-distBase[c])<<cl) << nb
		nb += cl + uint(distExtra[c])
		p += int(l) + 3
	}
	return n, acc, nb
}
