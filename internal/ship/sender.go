package ship

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"aets/internal/epoch"
)

// SenderConfig configures the primary side of a replication link.
type SenderConfig struct {
	// Dial opens a connection to the backup. Required. Called again on
	// every reconnect, so wrappers (FaultDialer) can script per-attempt
	// behaviour.
	Dial func() (net.Conn, error)
	// Schema is the workload schema hash exchanged in the handshake (see
	// SchemaHash). Both ends must match.
	Schema uint64
	// Window bounds the sent-but-unacknowledged epochs. Send blocks when
	// the window is full: the primary applies backpressure instead of
	// buffering without bound when the backup's replay stalls.
	// Default 32.
	Window int
	// HeartbeatEvery emits HEARTBEAT frames at this interval so an idle
	// stream still advances the backup's global commit timestamp (the
	// paper's dummy-log mechanism). 0 disables.
	HeartbeatEvery time.Duration
	// HeartbeatTS supplies the commit timestamp through which the
	// replication stream is complete: every transaction committed at or
	// below it has already been handed to Send. Heartbeats advertise
	// this timestamp to the backup's visibility machinery, so a value
	// ahead of the shipped stream would make unreplayed data appear
	// visible. Heartbeats are only emitted while the in-flight window is
	// empty (everything enqueued is acked), and carry the larger of this
	// and the last enqueued epoch's commit timestamp. Nil sends the last
	// enqueued epoch's timestamp alone (0 before the first Send, which
	// the backup's monotone publish ignores).
	HeartbeatTS func() int64
	// RetryBase and RetryMax bound the exponential reconnect backoff
	// (jittered). Defaults 25ms and 1s.
	RetryBase, RetryMax time.Duration
	// MaxAttempts is the consecutive dial/handshake failures tolerated
	// before giving up. Default 8.
	MaxAttempts int
	// Seed makes the backoff jitter deterministic. Default 1.
	Seed int64
	// Metrics receives the shipping counters; nil registers the default
	// names in metrics.Default.
	Metrics *Metrics
	// Compress advertises CapFlate in the handshake and compresses EPOCH
	// bufs of at least CompressThreshold bytes when the receiver
	// advertises it back. A peer that does not advertise the capability
	// gets the uncompressed stream — negotiation is per connection, so a
	// mixed fleet compresses on the links that can.
	Compress bool
	// CompressThreshold is the smallest epoch buf compressed, in bytes.
	// Default DefaultCompressThreshold.
	CompressThreshold int
	// Snapshot, when set, advertises CapSnapshot and enables wire-level
	// catch-up: a receiver whose cursor this sender cannot serve (below
	// the oldest retained epoch, regressed past the ack cursor, or
	// explicitly requesting repair) is streamed a full-state snapshot
	// and resumes the epoch stream at the snapshot's cursor. Nil keeps
	// the classic behaviour: an unservable cursor gaps the link.
	Snapshot SnapshotSource
}

// SenderStats is a point-in-time view of a sender's progress.
type SenderStats struct {
	Sent        int64 // epoch frames written (incl. retransmissions)
	Acked       int64 // epochs retired by acks or resume trims
	Reconnects  int64
	Inflight    int           // sent-but-unacked epochs
	AckCursor   uint64        // backup's cumulative cursor
	Lag         time.Duration // age of the oldest unacked epoch
	Connected   bool          // a connection is currently established
	BytesRaw    int64         // epoch bytes before compression (incl. framing)
	BytesWire   int64         // epoch bytes actually written
	Compressing bool          // current connection negotiated CapFlate
	Snapshots   int64         // catch-up snapshots streamed to this peer
	SnapWait    bool          // a streamed snapshot awaits the receiver's restore ack
}

// Sender ships encoded epochs to one backup. Connections are opened
// lazily on the first Send (or explicitly via Connect); a broken
// connection is re-dialed with jittered exponential backoff and the
// stream resumes from the cursor the backup reports in its WELCOME, so
// unacked epochs are retransmitted (as built, never rebuilt) and nothing gaps.
//
// Send and SendFrame may be called from one producer goroutine; Stats
// and Close are safe from any goroutine.
type Sender struct {
	cfg SenderConfig
	m   *Metrics
	rng *rand.Rand

	mu   sync.Mutex
	cond *sync.Cond

	conn    net.Conn
	bw      *bufio.Writer
	gen     int // connection generation, invalidates stale ack readers
	connErr error
	dialing bool
	everUp  bool

	pending   []*Frame // sent or to-send, not yet acked
	pendingAt []time.Time
	sentIdx   int // pending[:sentIdx] written on the current conn
	ackCursor uint64
	lastSeq   uint64
	haveSeq   bool
	lastTS    int64 // commit ts of the last enqueued epoch

	// negotiated is the capability intersection of the current
	// connection's handshake.
	negotiated uint64
	bytesRaw   int64
	bytesWire  int64

	// snapNeeded records that the receiver's state must be replaced
	// before the epoch stream can continue: a hole was enqueued (an
	// epoch skipped ahead of lastSeq+1), the handshake cursor regressed
	// below the retire point, or the receiver's WELCOME requested
	// repair. Acted on in flushLocked when a snapshot source is
	// configured and the link negotiated CapSnapshot.
	snapNeeded bool
	snapsSent  int64
	// snapWait is the cursor of a streamed snapshot the receiver has not
	// acknowledged yet (0 when none). Streaming retires the pending
	// epochs the snapshot covers, so without this the link would look
	// drained the moment the bytes left the buffer — and Close could
	// tear the connection down while the receiver is still reading the
	// transfer out of its socket buffer, losing the whole catch-up.
	// Cleared by the restore ack, or by a handshake whose cursor proves
	// the restore landed; a reconnect below it re-detects the gap and
	// restarts the transfer.
	snapWait uint64
	// permErr marks the stream unrecoverable on this link (a hole only a
	// snapshot can bridge, against a peer that cannot apply one):
	// reconnecting cannot help, so Send/Close fail fast instead of
	// redialing forever.
	permErr error

	sent, acked, reconnects int64

	closed bool
	stop   chan struct{}
}

// NewSender returns a Sender; no connection is made until the first
// Send or Connect. The configuration is validated here — a nil Dial is
// an error, not a panic, so embedding programs surface wiring mistakes
// through their normal error paths.
func NewSender(cfg SenderConfig) (*Sender, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("ship: SenderConfig.Dial is required")
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.CompressThreshold <= 0 {
		cfg.CompressThreshold = DefaultCompressThreshold
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Sender{
		cfg:  cfg,
		m:    cfg.Metrics,
		rng:  rand.New(rand.NewSource(seed)),
		stop: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.HeartbeatEvery > 0 {
		go s.heartbeatLoop()
	}
	return s, nil
}

// Connect dials and handshakes eagerly so misconfiguration (bad
// address, schema mismatch) fails before any epoch is generated.
func (s *Sender) Connect() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.connectLocked()
}

// Send enqueues one epoch and writes it out. It blocks while the
// in-flight window is full (backpressure) or while a broken connection
// is being re-established. A nil return means the epoch is queued and
// will be retransmitted across reconnects until the backup acknowledges
// it; durability is confirmed by acks, observable via Stats.
func (s *Sender) Send(enc *epoch.Encoded) error { return s.SendFrame(NewFrame(enc)) }

// SendFrame is Send for a frame other senders may share (a fan-out's
// peers); whichever sender first writes a form of it builds that form.
func (s *Sender) SendFrame(fr *Frame) error {
	enc := fr.enc
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return ErrClosed
		}
		if s.conn == nil || s.connErr != nil {
			if err := s.connectLocked(); err != nil {
				return err
			}
			continue
		}
		if len(s.pending) < s.cfg.Window {
			break
		}
		s.cond.Wait()
	}
	if enc.Seq < s.ackCursor {
		// Already covered by the backup's cumulative cursor (a resume
		// handshake ran ahead of the replay): durable remotely, nothing
		// to transmit.
		s.acked++
		s.m.EpochsAcked.Inc()
		return nil
	}
	if s.haveSeq && enc.Seq > s.lastSeq+1 {
		// The producer skipped epochs (a fan-out queue shed its backlog
		// on overflow): the stream now has a hole only a snapshot can
		// bridge.
		s.snapNeeded = true
	}
	s.pending = append(s.pending, fr)
	s.pendingAt = append(s.pendingAt, time.Now())
	s.lastSeq, s.haveSeq = enc.Seq, true
	if enc.LastCommitTS > s.lastTS {
		s.lastTS = enc.LastCommitTS
	}
	s.flushLocked()
	s.gaugesLocked()
	return nil
}

// Close drains the window — reconnecting if needed until every pending
// epoch is acknowledged — then sends a clean end-of-stream marker and
// tears the link down. It returns the first unrecoverable error.
func (s *Sender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for !s.closed && (len(s.pending) > 0 || s.snapWait != 0) {
		if s.conn == nil || s.connErr != nil {
			if err = s.connectLocked(); err != nil {
				break
			}
			continue
		}
		s.cond.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	if err == nil && s.conn != nil && s.connErr == nil {
		if werr := WriteFrame(s.bw, KindEOS, appendCursor(nil, s.ackCursor)); werr == nil {
			_ = s.bw.Flush()
		}
	}
	s.closed = true
	close(s.stop)
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.m.Connected.Set(0)
	s.cond.Broadcast()
	return err
}

// Stats returns a snapshot of the sender's progress and refreshes the
// lag/in-flight gauges.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gaugesLocked()
	st := SenderStats{
		Sent:        s.sent,
		Acked:       s.acked,
		Reconnects:  s.reconnects,
		Inflight:    len(s.pending),
		AckCursor:   s.ackCursor,
		Connected:   s.conn != nil && s.connErr == nil && !s.closed,
		BytesRaw:    s.bytesRaw,
		BytesWire:   s.bytesWire,
		Compressing: s.conn != nil && s.connErr == nil && s.negotiated&CapFlate != 0,
		Snapshots:   s.snapsSent,
		SnapWait:    s.snapWait != 0,
	}
	if len(s.pendingAt) > 0 {
		st.Lag = time.Since(s.pendingAt[0])
	}
	return st
}

// connectLocked (re-)establishes the connection, resuming from the
// backup's cursor. It temporarily releases the lock around dialing and
// backoff sleeps; the dialing flag keeps concurrent callers out.
func (s *Sender) connectLocked() error {
	for s.dialing {
		s.cond.Wait()
		if s.closed {
			return ErrClosed
		}
	}
	if s.permErr != nil {
		return s.permErr
	}
	if s.conn != nil && s.connErr == nil {
		return nil // someone else reconnected while we waited
	}
	s.dialing = true
	defer func() {
		s.dialing = false
		s.cond.Broadcast()
	}()

	var lastErr error
	for attempt := 0; attempt < s.cfg.MaxAttempts; attempt++ {
		s.teardownLocked()
		if attempt > 0 {
			delay := s.backoffLocked(attempt - 1)
			s.mu.Unlock()
			select {
			case <-time.After(delay):
			case <-s.stop:
				s.mu.Lock()
				return ErrClosed
			}
			s.mu.Lock()
			if s.closed {
				return ErrClosed
			}
		}
		s.mu.Unlock()
		conn, cursor, caps, req, err := s.dialAndShake()
		s.mu.Lock()
		if s.closed {
			if err == nil {
				conn.Close()
			}
			return ErrClosed
		}
		if err != nil {
			if errors.Is(err, ErrSchemaMismatch) || errors.Is(err, ErrVersion) {
				return err // permanent: retrying cannot help
			}
			lastErr = err
			continue
		}
		if s.everUp {
			s.reconnects++
			s.m.Reconnects.Inc()
		}
		s.everUp = true
		s.conn = conn
		s.bw = bufio.NewWriterSize(conn, 1<<20)
		s.connErr = nil
		s.negotiated = caps
		s.m.Connected.Set(1)
		s.gen++
		if req&ReqSnapshot != 0 {
			// The receiver detected divergence and wants its state
			// replaced regardless of cursor position.
			s.snapNeeded = true
		}
		if cursor < s.ackCursor {
			// The receiver lost state it had acknowledged (crash, restore
			// from an older checkpoint): epochs below the old ack cursor
			// are no longer pending here, so only a snapshot closes the
			// gap. retireLocked below never lowers ackCursor.
			s.snapNeeded = true
		}
		if s.snapWait != 0 && cursor >= s.snapWait {
			// The restore landed; only its ack was lost to the reconnect.
			s.snapWait = 0
		}
		s.retireLocked(cursor)
		s.sentIdx = 0
		go s.readAcks(conn, s.gen)
		s.flushLocked()
		if s.permErr != nil {
			return s.permErr
		}
		if s.connErr != nil {
			lastErr = s.connErr
			continue
		}
		return nil
	}
	return fmt.Errorf("ship: connect failed after %d attempts: %w", s.cfg.MaxAttempts, lastErr)
}

// capsOffered is the capability bitset this sender advertises.
func (s *Sender) capsOffered() uint64 {
	var caps uint64
	if s.cfg.Compress {
		caps |= CapFlate
	}
	if s.cfg.Snapshot != nil {
		caps |= CapSnapshot
	}
	return caps
}

// dialAndShake runs without the lock: dial, HELLO, expect WELCOME. It
// returns the receiver's cursor, the capabilities both ends advertise
// and the WELCOME's request bits.
func (s *Sender) dialAndShake() (net.Conn, uint64, uint64, uint64, error) {
	conn, err := s.cfg.Dial()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if err := WriteFrame(conn, KindHello, appendHello(nil, s.cfg.Schema, s.capsOffered())); err != nil {
		conn.Close()
		return nil, 0, 0, 0, err
	}
	// ReadFrame consumes exactly one frame, so handing the conn to the
	// buffered ack reader afterwards loses no bytes.
	kind, payload, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, 0, 0, 0, err
	}
	if kind != KindWelcome {
		conn.Close()
		return nil, 0, 0, 0, fmt.Errorf("%w: expected WELCOME, got kind %d", ErrCorrupt, kind)
	}
	schema, cursor, caps, req, err := parseWelcome(payload)
	if err != nil {
		conn.Close()
		return nil, 0, 0, 0, err
	}
	if schema != s.cfg.Schema {
		conn.Close()
		return nil, 0, 0, 0, fmt.Errorf("%w: sender %016x, receiver %016x", ErrSchemaMismatch, s.cfg.Schema, schema)
	}
	return conn, cursor, caps & s.capsOffered(), req, nil
}

// flushLocked writes every not-yet-sent pending epoch to the current
// connection. Failures park the error in connErr for the next
// reconnect; the epochs stay pending and are retransmitted.
func (s *Sender) flushLocked() {
	if s.conn == nil || s.connErr != nil {
		return
	}
	// Catch-up precedes the epoch stream: if the receiver's cursor is
	// unservable (below pending, regressed, holed, or repair-requested)
	// and this link can snapshot, replace its state first — the retire
	// at the snapshot cursor then drops every pending epoch the
	// snapshot already covers.
	if s.snapNeeded || (len(s.pending) > 0 && s.pending[0].enc.Seq > s.ackCursor) {
		if s.cfg.Snapshot != nil && s.negotiated&CapSnapshot != 0 {
			s.streamSnapshotLocked()
			if s.connErr != nil {
				return
			}
		} else {
			// Only a snapshot can bridge this, and the link has none to
			// offer (no source, or the peer cannot apply one). Permanent:
			// shipping the gapped epoch would be rejected, and redialing
			// cannot change either end's capabilities.
			s.permErr = fmt.Errorf("%w: stream gap at epoch %d, receiver cursor %d",
				ErrSnapshotUnsupported, s.pendingFirstSeqLocked(), s.ackCursor)
			s.failLocked(s.permErr)
			return
		}
	}
	for s.sentIdx < len(s.pending) {
		fr := s.pending[s.sentIdx]
		compressed := s.negotiated&CapFlate != 0 && len(fr.enc.Buf) >= s.cfg.CompressThreshold
		b := fr.wire(compressed, s.m.FramesBuilt)
		if _, err := s.bw.Write(b); err != nil {
			s.failLocked(err)
			return
		}
		// raw = the frame as it would ship uncompressed; wire = as sent.
		raw := int64(frameHdrSize + epochHdrSize + len(fr.enc.Buf) + 4)
		s.bytesRaw += raw
		s.bytesWire += int64(len(b))
		s.m.BytesRaw.Add(raw)
		s.m.BytesWire.Add(int64(len(b)))
		s.sentIdx++
		s.sent++
		s.m.EpochsSent.Inc()
	}
	if s.bytesRaw > 0 {
		s.m.CompressionRatio.Set(float64(s.bytesWire) / float64(s.bytesRaw))
	}
	if err := s.bw.Flush(); err != nil {
		s.failLocked(err)
	}
}

// streamSnapshotLocked cuts a snapshot from the configured source and
// streams it as SNAPBEGIN | SNAPCHUNK... | SNAPEND, then retires every
// pending epoch below the snapshot's cursor (the source contract says
// the snapshot covers them). Write failures park in connErr like any
// other flush failure: the receiver's cursor is unchanged, so the next
// reconnect detects the same gap and restarts the transfer from
// scratch — a torn transfer is never resumed mid-stream.
func (s *Sender) streamSnapshotLocked() {
	cursor, size, rc, err := s.cfg.Snapshot.Snapshot()
	if err != nil {
		s.failLocked(fmt.Errorf("ship: snapshot source: %w", err))
		return
	}
	defer rc.Close()
	var claim uint64
	if size > 0 {
		claim = uint64(size)
	}
	if err := WriteFrame(s.bw, KindSnapBegin, appendSnapBegin(nil, cursor, claim)); err != nil {
		s.failLocked(err)
		return
	}
	var total uint64
	var crc uint32
	chunk := make([]byte, snapChunkSize)
	for {
		n, rerr := rc.Read(chunk)
		if n > 0 {
			crc = crc32.Update(crc, castagnoli, chunk[:n])
			total += uint64(n)
			if werr := WriteFrame(s.bw, KindSnapChunk, chunk[:n]); werr != nil {
				s.failLocked(werr)
				return
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			s.failLocked(fmt.Errorf("ship: snapshot read: %w", rerr))
			return
		}
	}
	if err := WriteFrame(s.bw, KindSnapEnd, appendSnapEnd(nil, total, crc)); err != nil {
		s.failLocked(err)
		return
	}
	if err := s.bw.Flush(); err != nil {
		s.failLocked(err)
		return
	}
	s.snapNeeded = false
	s.snapsSent++
	s.m.SnapshotsSent.Inc()
	s.snapWait = cursor
	s.retireLocked(cursor)
}

// SendDigest writes one anti-entropy DIGEST frame carrying the
// committed-state digest as of cursor seq (epochs [0, seq) applied).
// Positional and best-effort: it is written only when the link is up,
// negotiated CapSnapshot, has flushed everything enqueued, and the
// stream position matches seq — otherwise it reports false and the
// digest is simply skipped (the receiver ignores mispositioned digests
// anyway, and a skipped round costs nothing but detection latency).
func (s *Sender) SendDigest(seq uint64, ts int64, digest uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.conn == nil || s.connErr != nil || s.negotiated&CapSnapshot == 0 {
		return false
	}
	if s.snapNeeded || s.sentIdx != len(s.pending) || !s.haveSeq || s.lastSeq+1 != seq {
		return false
	}
	if err := WriteFrame(s.bw, KindDigest, appendDigest(nil, seq, ts, digest)); err != nil {
		s.failLocked(err)
		return false
	}
	if err := s.bw.Flush(); err != nil {
		s.failLocked(err)
		return false
	}
	s.m.DigestsSent.Inc()
	return true
}

// pendingFirstSeqLocked is the first unretired sequence (error text).
func (s *Sender) pendingFirstSeqLocked() uint64 {
	if len(s.pending) > 0 {
		return s.pending[0].enc.Seq
	}
	return s.ackCursor
}

// retireLocked drops pending epochs below the cumulative cursor
// (acknowledged, or already applied per a resume handshake).
func (s *Sender) retireLocked(cursor uint64) {
	n := 0
	for n < len(s.pending) && s.pending[n].enc.Seq < cursor {
		n++
	}
	if n > 0 {
		copy(s.pending, s.pending[n:])
		for i := len(s.pending) - n; i < len(s.pending); i++ {
			s.pending[i] = nil
		}
		s.pending = s.pending[:len(s.pending)-n]
		copy(s.pendingAt, s.pendingAt[n:])
		s.pendingAt = s.pendingAt[:len(s.pendingAt)-n]
		if s.sentIdx -= n; s.sentIdx < 0 {
			s.sentIdx = 0
		}
		s.acked += int64(n)
		s.m.EpochsAcked.Add(int64(n))
	}
	if cursor > s.ackCursor {
		s.ackCursor = cursor
	}
	s.gaugesLocked()
	s.cond.Broadcast()
}

func (s *Sender) failLocked(err error) {
	if s.connErr == nil {
		s.connErr = err
	}
	if s.conn != nil {
		s.conn.Close()
	}
	s.m.Connected.Set(0)
	s.cond.Broadcast()
}

func (s *Sender) teardownLocked() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.m.Connected.Set(0)
	s.gen++
	s.sentIdx = 0
	s.negotiated = 0
}

func (s *Sender) gaugesLocked() {
	s.m.Inflight.Set(float64(len(s.pending)))
	lag := 0.0
	if len(s.pendingAt) > 0 {
		lag = time.Since(s.pendingAt[0]).Seconds()
	}
	s.m.LagSeconds.Set(lag)
}

// backoffLocked returns the jittered exponential delay for the given
// zero-based retry. Backoff saturates at RetryMax instead of letting
// the shift overflow into a zero/negative delay (a hot reconnect loop)
// at high retry counts.
func (s *Sender) backoffLocked(retry int) time.Duration {
	d := Backoff(s.cfg.RetryBase, s.cfg.RetryMax, retry)
	half := int64(d / 2)
	return time.Duration(half + s.rng.Int63n(half+1))
}

// readAcks consumes ACK frames from one connection until it dies. A
// stale generation (the sender already reconnected) exits silently.
func (s *Sender) readAcks(conn net.Conn, gen int) {
	br := bufio.NewReaderSize(conn, 1<<12)
	for {
		kind, payload, err := ReadFrame(br)
		s.mu.Lock()
		if gen != s.gen || s.closed {
			s.mu.Unlock()
			return
		}
		if err != nil {
			s.failLocked(err)
			s.mu.Unlock()
			return
		}
		if kind == KindAck {
			cursor, perr := parseCursor(payload, "ACK")
			if perr != nil {
				s.failLocked(perr)
				s.mu.Unlock()
				return
			}
			if s.snapWait != 0 && cursor >= s.snapWait {
				s.snapWait = 0
			}
			s.retireLocked(cursor)
		}
		s.mu.Unlock()
	}
}

// heartbeatLoop emits HEARTBEAT frames on a live connection. It never
// dials: reconnection stays driven by Send/Close so an abandoned sender
// does not keep redialing forever.
func (s *Sender) heartbeatLoop() {
	t := time.NewTicker(s.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		// Only heartbeat while the window is empty: with epochs in
		// flight, a heartbeat could advertise a timestamp whose data the
		// backup has not applied yet. In-flight epochs advance visibility
		// themselves as they land.
		if !s.closed && s.conn != nil && s.connErr == nil && len(s.pending) == 0 {
			ts := s.lastTS
			if s.cfg.HeartbeatTS != nil {
				if t := s.cfg.HeartbeatTS(); t > ts {
					ts = t
				}
			}
			if err := WriteFrame(s.bw, KindHeartbeat, appendHeartbeat(nil, ts)); err != nil {
				s.failLocked(err)
			} else if err := s.bw.Flush(); err != nil {
				s.failLocked(err)
			}
		}
		s.mu.Unlock()
	}
}
