// Package ship is the replication transport between a primary and a
// backup: a CRC-framed epoch-shipping protocol with a resume
// handshake, cumulative acknowledgements, a bounded in-flight window
// (backpressure), idle-stream heartbeats and reconnect with
// exponential backoff. It replaces the hand-rolled socket framing the
// demos used to carry and makes the stream survive faults: a dropped
// connection resumes from the backup's cursor instead of gapping or
// restarting.
//
// Wire format, all little endian. Every message is one frame:
//
//	magic 0xA7 | version u8 | kind u8 | flags u8 | payloadLen u32 |
//	payload | crc32c(header‖payload) u32
//
// There is one protocol version: every frame written carries Version,
// and a frame with any other version byte is refused with ErrVersion,
// which a Sender reports as terminal (redialing cannot change what the
// peer speaks). Two peers differ only in the capabilities they
// advertise in the handshake; a feature is used on a link exactly when
// both ends advertise it. The rule holds at rest too: spool segments are
// ship frames, so a segment an older build wrote fails ErrVersion at its
// first frame and the spool truncates it (internal/recovery).
//
// Frame kinds and payloads:
//
//	HELLO     sender→receiver  schemaHash u64 | caps u64
//	WELCOME   receiver→sender  schemaHash u64 | cursor u64 | caps u64 |
//	                           req u64
//	EPOCH     sender→receiver  seq u64 | txnCount u32 | lastTxnID u64 |
//	                           lastCommitTS i64 | entryCount u32 |
//	                           bufLen u32 | bufCRC u32 | firstLSN u64 |
//	                           buf
//	ACK       receiver→sender  cursor u64 (cumulative)
//	HEARTBEAT sender→receiver  ts i64
//	EOS       sender→receiver  cursor u64 (clean end of stream)
//
// When both ends advertise CapFlate, the sender may set FlagCompressed
// (header flags bit 0) on EPOCH frames: the 48-byte epoch header stays
// in the clear (bufLen holds the RAW buf length, so seq and the counts
// are readable without inflating) and the buf bytes that follow are a
// flate stream. All other frame kinds, and EPOCH frames below the
// sender's size threshold or that flate fails to shrink, carry zero
// flags.
//
// bufCRC is the CRC32-C of the raw buf, and it is the only checksum an
// epoch's log entries have (a wal entry carries none). A raw EPOCH frame
// needs no second check — its frame CRC covers the same bytes — so
// bufCRC is verified only after a compressed buf is inflated, where the
// frame CRC vouches for the flate stream but not for what the decoder
// made of it. firstLSN is the LSN of buf's first entry, and entry i's is
// firstLSN+i: a wal entry carries no LSN either. Nor do BEGIN and DML
// entries carry a txn ID or timestamp: those are written once, on the
// transaction's COMMIT (internal/wal).
//
// When both ends advertise CapSnapshot, the WELCOME's req bits may ask
// for an immediate snapshot (bit 0), and the sender may interpose a
// snapshot catch-up sequence or anti-entropy digests into the epoch
// stream:
//
//	SNAPBEGIN sender→receiver  cursor u64 | totalBytes u64 (0 unknown)
//	SNAPCHUNK sender→receiver  raw checkpoint bytes (≤ MaxSnapChunk)
//	SNAPEND   sender→receiver  totalBytes u64 | crc32c(chunks) u32
//	DIGEST    sender→receiver  seq u64 | ts i64 | digest u64
//
// A snapshot replaces the receiver's state wholesale: after a valid
// SNAPBEGIN..SNAPEND sequence restores, the receiver's cursor jumps to
// the snapshot cursor and the epoch stream resumes there. A DIGEST
// carries the sender's committed-state digest as of cursor seq; a
// receiver at the same cursor compares and, on mismatch, requests a
// repair snapshot via the WELCOME req bit on its next handshake.
//
// A cursor is always "the next epoch sequence number expected": epoch
// seqs start at 0, so a cursor of n means epochs [0, n) are applied.
package ship

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"sync"

	"aets/internal/epoch"
	"aets/internal/metrics"
	"aets/internal/wal"
)

// Version is the protocol version stamped on every frame written.
const Version = 5

// Frame header flag bits.
const (
	// FlagCompressed marks an EPOCH frame whose buf bytes (after the
	// clear 48-byte epoch header) are a flate stream.
	FlagCompressed byte = 1 << 0
)

// Capability bits exchanged in the handshake.
const (
	// CapFlate advertises per-frame flate compression of EPOCH bufs.
	CapFlate uint64 = 1 << 0
	// CapSnapshot advertises snapshot catch-up and digest anti-entropy:
	// a sender that cannot serve the receiver's cursor may stream a
	// chunked checkpoint snapshot, and may interleave periodic state
	// digests with the epoch stream.
	CapSnapshot uint64 = 1 << 1
)

// WELCOME request bits (set only on links that negotiated CapSnapshot).
const (
	// ReqSnapshot asks the sender for an immediate snapshot regardless
	// of cursor position — the receiver detected divergence (digest
	// mismatch) and wants its state replaced.
	ReqSnapshot uint64 = 1 << 0
)

const (
	frameMagic   = 0xA7
	frameHdrSize = 8
	// MaxPayload bounds a frame payload; larger lengths are rejected as
	// corruption before any allocation.
	MaxPayload = 1 << 28
	// MaxSnapChunk bounds one SNAPCHUNK payload. Snapshots of any size
	// ship as a sequence of bounded chunks, so no single frame — and no
	// single receiver-side allocation — scales with snapshot size.
	MaxSnapChunk = 1 << 20
	// maxPrealloc bounds the buffer allocated up front for a claimed
	// length. Payloads may legitimately reach MaxPayload, but a hostile
	// header can claim 256MB over a 10-byte stream; reading incrementally
	// from this floor means allocation tracks the bytes that actually
	// arrive instead of the attacker's claim.
	maxPrealloc = 1 << 20
)

// Frame kinds.
const (
	KindHello     byte = 1
	KindWelcome   byte = 2
	KindEpoch     byte = 3
	KindAck       byte = 4
	KindHeartbeat byte = 5
	KindEOS       byte = 6
	// Snapshot catch-up and anti-entropy frames (sent only on links
	// that negotiated CapSnapshot).
	KindSnapBegin byte = 7
	KindSnapChunk byte = 8
	KindSnapEnd   byte = 9
	KindDigest    byte = 10
)

var (
	// ErrCorrupt marks a structurally invalid frame: bad magic, flags,
	// oversized length, CRC mismatch, or a malformed payload.
	ErrCorrupt = errors.New("ship: corrupt frame")
	// ErrShortFrame marks a frame truncated mid-read (the connection was
	// cut inside a frame).
	ErrShortFrame = errors.New("ship: short frame")
	// ErrVersion marks a frame with an unsupported protocol version.
	ErrVersion = errors.New("ship: unsupported protocol version")
	// ErrSchemaMismatch is returned when the two ends of a handshake
	// disagree on the workload schema hash. It is permanent: the sender
	// does not retry it.
	ErrSchemaMismatch = errors.New("ship: workload schema mismatch")
	// ErrGap is returned by the receiver when an epoch arrives beyond the
	// next expected sequence — the stream lost data.
	ErrGap = errors.New("ship: epoch sequence gap")
	// ErrClosed is returned by operations on a closed Sender.
	ErrClosed = errors.New("ship: sender closed")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one encoded frame carrying the given header
// flags to dst and returns the result.
func AppendFrame(dst []byte, kind, flags byte, payload []byte) []byte {
	off := len(dst)
	return sealFrame(append(appendFrameHdr(dst, kind, flags), payload...), off)
}

// appendFrameHdr appends a frame header whose payload length is left
// for sealFrame to stamp once the payload has been appended.
func appendFrameHdr(dst []byte, kind, flags byte) []byte {
	return append(dst, frameMagic, Version, kind, flags, 0, 0, 0, 0)
}

// sealFrame completes the frame at dst[off:], whose payload runs to the
// end of dst: it stamps the payload length and appends the CRC.
func sealFrame(dst []byte, off int) []byte {
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(len(dst)-off-frameHdrSize))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(dst[off:], castagnoli))
	return append(dst, crc[:]...)
}

// WriteFrame writes one flagless frame to w as a single Write call, so
// conn-level fault injection (and packet captures) see whole frames.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, kind, 0, payload))
	return err
}

// ReadFrameFlags reads one frame from r and verifies its CRC,
// returning the header's flags alongside kind and payload. A clean EOF
// at a frame boundary is io.EOF; truncation inside a frame is
// ErrShortFrame; structural damage is ErrCorrupt; a version byte other
// than Version is ErrVersion. It never panics on malformed input. The
// payload slice is freshly allocated per call and never shares memory
// with a previously returned one.
func ReadFrameFlags(r io.Reader) (kind, flags byte, payload []byte, err error) {
	var hdr [frameHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, nil, io.EOF
		}
		return 0, 0, nil, fmt.Errorf("%w: header: %v", ErrShortFrame, err)
	}
	if hdr[0] != frameMagic {
		return 0, 0, nil, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, hdr[0])
	}
	if hdr[1] != Version {
		return 0, 0, nil, fmt.Errorf("%w: %d", ErrVersion, hdr[1])
	}
	flags = hdr[3]
	if flags&^FlagCompressed != 0 {
		return 0, 0, nil, fmt.Errorf("%w: unknown frame flags 0x%02x", ErrCorrupt, flags)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return 0, 0, nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	body, rerr := readFullCapped(r, int(n)+4)
	if rerr != nil {
		return 0, 0, nil, fmt.Errorf("%w: body: %v", ErrShortFrame, rerr)
	}
	payload = body[:n]
	sum := crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, payload)
	if sum != binary.LittleEndian.Uint32(body[n:]) {
		return 0, 0, nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return hdr[2], flags, payload, nil
}

// readFullCapped reads exactly n bytes from r without trusting n for
// the initial allocation: the buffer starts at maxPrealloc and doubles
// only as bytes actually arrive, so a hostile length prefix over a
// short stream costs one bounded allocation before ErrShortFrame
// surfaces, not the 256MB the header claims.
func readFullCapped(r io.Reader, n int) ([]byte, error) {
	step := n
	if step > maxPrealloc {
		step = maxPrealloc
	}
	buf := make([]byte, step)
	for {
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		step = len(buf)
		if step > n-len(buf) {
			step = n - len(buf)
		}
		nb := make([]byte, len(buf)+step)
		copy(nb, buf)
		buf = nb
	}
}

// ReadFrame reads one frame from r and verifies its CRC, rejecting
// frames with nonzero flags — use ReadFrameFlags on paths (the
// receiver's epoch loop, the spool scan) where compressed frames may
// appear.
func ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	kind, flags, payload, err := ReadFrameFlags(r)
	if err != nil {
		return 0, nil, err
	}
	if flags != 0 {
		return 0, nil, fmt.Errorf("%w: unexpected compressed frame", ErrCorrupt)
	}
	return kind, payload, nil
}

// epochHdrSize is the fixed prefix of an EPOCH payload (the summary
// fields available without parsing — or inflating — the log buffer).
const epochHdrSize = 48

// appendEpochHdr appends the 48-byte EPOCH payload header for enc. The
// bufLen and bufCRC fields always describe the raw (uncompressed) buf;
// each frame build computes bufCRC once.
func appendEpochHdr(dst []byte, enc *epoch.Encoded) []byte {
	var p [epochHdrSize]byte
	binary.LittleEndian.PutUint64(p[0:], enc.Seq)
	binary.LittleEndian.PutUint32(p[8:], uint32(enc.TxnCount))
	binary.LittleEndian.PutUint64(p[12:], enc.LastTxnID)
	binary.LittleEndian.PutUint64(p[20:], uint64(enc.LastCommitTS))
	binary.LittleEndian.PutUint32(p[28:], uint32(enc.EntryCount))
	binary.LittleEndian.PutUint32(p[32:], uint32(len(enc.Buf)))
	binary.LittleEndian.PutUint32(p[36:], crc32.Checksum(enc.Buf, castagnoli))
	binary.LittleEndian.PutUint64(p[40:], enc.FirstLSN)
	return append(dst, p[:]...)
}

// EncodeEpoch returns the uncompressed EPOCH frame payload for enc.
func EncodeEpoch(enc *epoch.Encoded) []byte {
	p := appendEpochHdr(make([]byte, 0, epochHdrSize+len(enc.Buf)), enc)
	return append(p, enc.Buf...)
}

// Frame is one epoch's outgoing EPOCH frame, shared by every sender
// that ships the epoch (a fan-out wraps each epoch once for all peers).
// Its wire bytes are built lazily, at most once per form — flate and
// raw — by whichever sender first needs that form; every other sender,
// and every retransmission after a reconnect, writes exactly those
// bytes. A built form is immutable and never recycled: it lives while
// any sender holds the frame queued or in flight, so a dead peer's
// unbounded backlog pins built bytes as well as the epoch buffers
// (epoch.Encoded) it pins anyway.
type Frame struct {
	enc                *epoch.Encoded
	rawOnce, flateOnce sync.Once
	raw, flated        []byte // flated stays nil when flate does not shrink enc
}

// NewFrame wraps enc for shipping; nothing is built until a sender
// writes the frame.
func NewFrame(enc *epoch.Encoded) *Frame { return &Frame{enc: enc} }

// Epoch returns the epoch the frame carries.
func (f *Frame) Epoch() *epoch.Encoded { return f.enc }

// wire returns the frame's flate form (raw when flate cannot shrink the
// epoch) or raw form, building it on first use; a build adds one to built.
func (f *Frame) wire(compressed bool, built *metrics.Counter) []byte {
	if compressed {
		f.flateOnce.Do(func() { f.flated = flateEpochFrame(f.enc); built.Inc() })
		if f.flated != nil {
			return f.flated
		}
	}
	// One allocation: AppendFrame over EncodeEpoch without the payload copy.
	f.rawOnce.Do(func() {
		b := make([]byte, 0, frameHdrSize+epochHdrSize+len(f.enc.Buf)+4)
		b = appendEpochHdr(appendFrameHdr(b, KindEpoch, 0), f.enc)
		f.raw = sealFrame(append(b, f.enc.Buf...), 0)
		built.Inc()
	})
	return f.raw
}

// DecodeEpochFrame parses an EPOCH frame payload under the frame's
// header flags. With FlagCompressed set, the buf bytes after the clear
// epoch header are inflated into a freshly allocated buffer of exactly
// bufLen bytes (which therefore never aliases p); the stream must
// inflate to exactly that size, and to bytes whose CRC32-C is bufCRC.
// Malformed or truncated payloads return ErrCorrupt, never panic.
//
// Ownership: without FlagCompressed the returned enc.Buf ALIASES p — no
// copy is made on this hot path. The caller must not reuse or mutate p
// while the epoch is retained. Both wire paths uphold this:
// ReadFrameFlags allocates a fresh payload per frame, and spool replay
// allocates per epoch.
func DecodeEpochFrame(flags byte, p []byte) (*epoch.Encoded, error) {
	if flags&^FlagCompressed != 0 {
		return nil, fmt.Errorf("%w: unknown frame flags 0x%02x", ErrCorrupt, flags)
	}
	if len(p) < epochHdrSize {
		return nil, fmt.Errorf("%w: epoch payload %d bytes", ErrCorrupt, len(p))
	}
	n := binary.LittleEndian.Uint32(p[32:])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: epoch buf length %d", ErrCorrupt, n)
	}
	enc := &epoch.Encoded{
		Seq:          binary.LittleEndian.Uint64(p[0:]),
		TxnCount:     int(binary.LittleEndian.Uint32(p[8:])),
		LastTxnID:    binary.LittleEndian.Uint64(p[12:]),
		LastCommitTS: int64(binary.LittleEndian.Uint64(p[20:])),
		EntryCount:   int(binary.LittleEndian.Uint32(p[28:])),
		FirstLSN:     binary.LittleEndian.Uint64(p[40:]),
	}
	// Counts must be sane relative to the buf: every transaction and
	// every entry occupies at least one buf byte (a wal entry frame is
	// ≥2 bytes), so a hostile header claiming ~4B entries over a tiny
	// buf is rejected here instead of poisoning consumers that trust
	// EntryCount for preallocation or accounting.
	if uint64(enc.TxnCount) > uint64(n) || uint64(enc.EntryCount) > uint64(n) {
		return nil, fmt.Errorf("%w: epoch counts %d/%d exceed buf length %d",
			ErrCorrupt, enc.TxnCount, enc.EntryCount, n)
	}
	if flags&FlagCompressed == 0 {
		if int(n) != len(p)-epochHdrSize {
			return nil, fmt.Errorf("%w: epoch buf length %d, have %d", ErrCorrupt, n, len(p)-epochHdrSize)
		}
		if n > 0 {
			enc.Buf = p[epochHdrSize:]
		}
		return enc, nil
	}
	// Compressed: bufLen is the raw length, the rest of the payload is a
	// flate stream that must inflate to exactly that many bytes.
	if n == 0 || len(p) == epochHdrSize {
		return nil, fmt.Errorf("%w: empty compressed epoch buf", ErrCorrupt)
	}
	// The claimed raw length drives allocation only as far as the flate
	// stream actually delivers: a hostile bufLen over a tiny compressed
	// body fails after one bounded buffer.
	buf, err := inflate(p[epochHdrSize:], int(n))
	if err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(p[36:]) {
		return nil, fmt.Errorf("%w: inflated epoch buf fails its crc", ErrCorrupt)
	}
	enc.Buf = buf
	return enc, nil
}

func appendU64(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		dst = append(dst, b[:]...)
	}
	return dst
}

func parseU64(p []byte, what string, n int) ([]uint64, error) {
	if len(p) != 8*n {
		return nil, fmt.Errorf("%w: %s payload %d bytes", ErrCorrupt, what, len(p))
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return out, nil
}

func appendHello(dst []byte, schema, caps uint64) []byte {
	return appendU64(dst, schema, caps)
}

func parseHello(p []byte) (schema, caps uint64, err error) {
	v, err := parseU64(p, "HELLO", 2)
	if err != nil {
		return 0, 0, err
	}
	return v[0], v[1], nil
}

func appendWelcome(dst []byte, schema, cursor, caps, req uint64) []byte {
	return appendU64(dst, schema, cursor, caps, req)
}

func parseWelcome(p []byte) (schema, cursor, caps, req uint64, err error) {
	v, err := parseU64(p, "WELCOME", 4)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return v[0], v[1], v[2], v[3], nil
}

func appendSnapBegin(dst []byte, cursor, total uint64) []byte {
	return appendU64(dst, cursor, total)
}

func parseSnapBegin(p []byte) (cursor, total uint64, err error) {
	v, err := parseU64(p, "SNAPBEGIN", 2)
	if err != nil {
		return 0, 0, err
	}
	return v[0], v[1], nil
}

func appendSnapEnd(dst []byte, total uint64, crc uint32) []byte {
	dst = appendU64(dst, total)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], crc)
	return append(dst, b[:]...)
}

func parseSnapEnd(p []byte) (total uint64, crc uint32, err error) {
	if len(p) != 12 {
		return 0, 0, fmt.Errorf("%w: SNAPEND payload %d bytes", ErrCorrupt, len(p))
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint32(p[8:]), nil
}

func appendDigest(dst []byte, seq uint64, ts int64, digest uint64) []byte {
	return appendU64(dst, seq, uint64(ts), digest)
}

func parseDigest(p []byte) (seq uint64, ts int64, digest uint64, err error) {
	v, err := parseU64(p, "DIGEST", 3)
	if err != nil {
		return 0, 0, 0, err
	}
	return v[0], int64(v[1]), v[2], nil
}

func appendCursor(dst []byte, cursor uint64) []byte { return appendU64(dst, cursor) }

func parseCursor(p []byte, what string) (uint64, error) {
	v, err := parseU64(p, what, 1)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func appendHeartbeat(dst []byte, ts int64) []byte { return appendU64(dst, uint64(ts)) }

func parseHeartbeat(p []byte) (int64, error) {
	v, err := parseU64(p, "HEARTBEAT", 1)
	if err != nil {
		return 0, err
	}
	return int64(v[0]), nil
}

// SchemaHash fingerprints a workload schema (name plus table IDs) for
// the handshake: both ends must replay the same schema or grouping
// plans and table IDs would silently disagree. The name is
// length-prefixed before hashing so the (name, tables) encoding is
// injective — without it, a name whose UTF-8 tail equals another
// schema's first ID bytes would collide and pass the handshake.
func SchemaHash(name string, tables []wal.TableID) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(name)))
	_, _ = h.Write(b[:])
	_, _ = io.WriteString(h, name)
	for _, t := range tables {
		binary.LittleEndian.PutUint32(b[:4], uint32(t))
		_, _ = h.Write(b[:4])
	}
	return h.Sum64()
}
