package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aets/internal/epoch"
	"aets/internal/metrics"
	"aets/internal/ship"
)

// ErrPeerOverflow is the terminal error of a peer whose divergence
// buffer exceeded FanoutConfig.MaxQueue: the peer fell too far behind
// its siblings and was dropped from the fan-out. With a snapshot
// source configured the overflow is not terminal — the backlog is shed
// and the peer re-based over the wire instead (see FanoutConfig.Snapshot).
var ErrPeerOverflow = errors.New("cluster: peer queue overflow")

// ErrAllPeersDown is returned by Send once every peer has failed.
var ErrAllPeersDown = errors.New("cluster: all fan-out peers down")

// Peer configures one downstream replication link of a Fanout.
type Peer struct {
	// ID names the replica this link feeds; it labels the link's ship_*
	// metrics (peer="<ID>").
	ID string
	// Sender is the link configuration (Dial, Schema, Window, retry
	// policy...). Sender.Metrics defaults to per-peer labelled metrics
	// in the fan-out's registry; Sender.HeartbeatTS defaults to the
	// peer's handed-off watermark so heartbeats never advertise
	// timestamps ahead of what this link has shipped.
	Sender ship.SenderConfig
}

// FanoutConfig configures a Fanout.
type FanoutConfig struct {
	// Peers are the downstream links. At least one is required.
	Peers []Peer
	// Registry receives the per-peer ship metrics; nil uses
	// metrics.Default.
	Registry *metrics.Registry
	// MaxQueue bounds each peer's divergence buffer: epochs enqueued but
	// not yet handed to that peer's sender (which applies its own
	// windowed backpressure per link). When a peer exceeds it — it is
	// down for longer than its siblings' progress allows — the peer is
	// dropped with ErrPeerOverflow instead of stalling the fan-out.
	// 0 means unbounded (the default): a dead replica's epochs
	// accumulate until it returns, and its sender resumes from the
	// replica's cursor on reconnect.
	//
	// When Snapshot is set, overflow is recoverable instead of terminal:
	// the backlog is shed, cluster_peer_overflow_total{peer} counts the
	// shed, and the peer's sender re-bases the replica with a wire-level
	// snapshot when it reconnects.
	MaxQueue int
	// Snapshot, when set, is the default ship.SenderConfig.Snapshot for
	// every peer whose own config leaves it nil: the state source a
	// sender streams when a replica's cursor predates retained history —
	// after a MaxQueue overflow shed, a primary-side spool compaction,
	// or a digest-mismatch repair request. On a fan-out primary this is
	// an htap.NodeSnapshotSource over the mirror node that applies each
	// epoch before it ships.
	Snapshot ship.SnapshotSource
	// DigestEvery enqueues an anti-entropy digest to every peer after
	// each DigestEvery-th epoch: the sender ships a state digest that
	// the replica compares against its own committed state at the same
	// cursor, catching silent divergence that per-frame CRCs cannot.
	// 0 disables anti-entropy. Requires Digest.
	DigestEvery int
	// Digest supplies the digest triple (cursor, visible timestamp,
	// state digest) covering every epoch passed to Send so far. It is
	// called from Send's goroutine, so computing it may quiesce the
	// mirror node safely (htap.Node.AntiEntropyDigest).
	Digest func() (seq uint64, ts int64, digest uint64)
}

// Fanout feeds N downstream replicas from one epoch stream. Each peer
// owns an independent ship.Sender — its own cursor, in-flight window and
// reconnect state — fed from a per-peer queue by a per-peer goroutine,
// so a slow or dead peer never blocks Send for its siblings. A peer
// whose sender gives up (dial budget exhausted, schema mismatch) is
// marked failed and skipped; the rest of the fan-out continues.
//
// Send may be called from one producer goroutine (the same contract as
// ship.Sender.Send); Stats and Close are safe from any.
type Fanout struct {
	peers []*fanPeer

	// Digest cadence; sent is touched only from Send's goroutine.
	digestEvery int
	digestFn    func() (uint64, int64, uint64)
	sent        int
}

// fanItem is one queue entry: an epoch frame to ship, shared with every
// other peer's queue, or (fr == nil) an anti-entropy digest marker the
// worker forwards best-effort.
type fanItem struct {
	fr     *ship.Frame
	seq    uint64
	ts     int64
	digest uint64
}

// fanPeer is one downstream link: sender, divergence queue, worker.
type fanPeer struct {
	id        string
	s         *ship.Sender
	max       int
	shed      bool // overflow sheds the backlog instead of failing the peer
	overflows *metrics.Counter

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []fanItem
	busy   bool // worker is inside s.Send for a dequeued epoch
	closed bool
	err    error

	// hbTS is the commit watermark through which this link's stream is
	// complete: everything at or below it was handed to s.Send. The
	// sender's heartbeat loop advertises it (only while its window is
	// empty), so heartbeats stay behind shipped data.
	hbTS atomic.Int64

	done chan struct{}
}

// NewFanout builds the fan-out and starts its per-peer workers. No
// connections are made until the first Send (or each sender's own
// Connect); peer IDs must be unique and non-empty.
func NewFanout(cfg FanoutConfig) (*Fanout, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: FanoutConfig.Peers is empty")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.Default
	}
	if cfg.DigestEvery > 0 && cfg.Digest == nil {
		return nil, fmt.Errorf("cluster: FanoutConfig.DigestEvery set without Digest")
	}
	seen := make(map[string]bool, len(cfg.Peers))
	f := &Fanout{digestEvery: cfg.DigestEvery, digestFn: cfg.Digest}
	for _, pc := range cfg.Peers {
		if pc.ID == "" {
			return nil, fmt.Errorf("cluster: fan-out peer with empty ID")
		}
		if seen[pc.ID] {
			return nil, fmt.Errorf("cluster: duplicate fan-out peer %q", pc.ID)
		}
		seen[pc.ID] = true
		p := &fanPeer{id: pc.ID, max: cfg.MaxQueue, done: make(chan struct{})}
		p.cond = sync.NewCond(&p.mu)
		p.overflows = reg.Counter(metrics.WithLabel("cluster_peer_overflow_total", "peer", pc.ID))
		sc := pc.Sender
		if sc.Metrics == nil {
			sc.Metrics = ship.NewPeerMetrics(reg, pc.ID)
		}
		if sc.HeartbeatTS == nil {
			sc.HeartbeatTS = p.hbTS.Load
		}
		if sc.Snapshot == nil {
			sc.Snapshot = cfg.Snapshot
		}
		p.shed = sc.Snapshot != nil
		s, err := ship.NewSender(sc)
		if err != nil {
			// Tear down the workers already started.
			for _, started := range f.peers {
				started.fail(fmt.Errorf("cluster: fan-out aborted"))
				<-started.done
			}
			return nil, fmt.Errorf("cluster: peer %q: %w", pc.ID, err)
		}
		p.s = s
		f.peers = append(f.peers, p)
		go p.run()
		go p.nurse()
	}
	return f, nil
}

// Send enqueues one epoch to every live peer and returns immediately;
// each peer's worker drains its queue through its sender (which blocks
// on that link's window — per-link backpressure, invisible to siblings).
// Every peer shares one ship.Frame, so the epoch is deflated once for
// the fan-out, not per peer. It fails only when every peer is down.
func (f *Fanout) Send(enc *epoch.Encoded) error {
	fr := ship.NewFrame(enc)
	live := 0
	for _, p := range f.peers {
		if p.enqueue(fanItem{fr: fr}) {
			live++
		}
	}
	if live == 0 {
		return fmt.Errorf("%w: %s", ErrAllPeersDown, f.errSummary())
	}
	f.sent++
	if f.digestEvery > 0 && f.sent%f.digestEvery == 0 {
		// The digest covers everything sent so far; each worker forwards
		// it once its link has handed off the epochs it guards.
		seq, ts, dg := f.digestFn()
		for _, p := range f.peers {
			p.enqueue(fanItem{seq: seq, ts: ts, digest: dg})
		}
	}
	return nil
}

// PeerStats is one link's progress snapshot.
type PeerStats struct {
	ID string
	ship.SenderStats
	// Queued is the divergence buffer depth: epochs accepted by Send but
	// not yet handed to this peer's sender.
	Queued int
	// Err is the peer's terminal error, nil while live.
	Err error
}

// Stats snapshots every peer in configuration order.
func (f *Fanout) Stats() []PeerStats {
	out := make([]PeerStats, 0, len(f.peers))
	for _, p := range f.peers {
		p.mu.Lock()
		st := PeerStats{ID: p.id, Queued: len(p.queue), Err: p.err}
		p.mu.Unlock()
		st.SenderStats = p.s.Stats()
		out = append(out, st)
	}
	return out
}

// Live returns the number of peers still accepting epochs.
func (f *Fanout) Live() int {
	n := 0
	for _, p := range f.peers {
		p.mu.Lock()
		if p.err == nil && !p.closed {
			n++
		}
		p.mu.Unlock()
	}
	return n
}

// Close drains every live peer's queue and window (reconnecting if
// needed), sends each link's clean end-of-stream and tears it down. It
// returns the errors of peers that failed, joined; a fan-out that
// delivered everywhere returns nil.
func (f *Fanout) Close() error {
	var errs []error
	for _, p := range f.peers {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	for _, p := range f.peers {
		<-p.done
		p.mu.Lock()
		err := p.err
		p.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("peer %q: %w", p.id, err))
		}
	}
	return errors.Join(errs...)
}

// errSummary renders the terminal errors for ErrAllPeersDown.
func (f *Fanout) errSummary() string {
	s := ""
	for _, p := range f.peers {
		p.mu.Lock()
		if p.err != nil {
			if s != "" {
				s += "; "
			}
			s += fmt.Sprintf("%s: %v", p.id, p.err)
		}
		p.mu.Unlock()
	}
	return s
}

// enqueue appends one item to the peer's queue; false means the peer is
// no longer accepting (failed or closed).
func (p *fanPeer) enqueue(it fanItem) bool {
	p.mu.Lock()
	if p.err != nil || p.closed {
		p.mu.Unlock()
		return false
	}
	if p.max > 0 && len(p.queue) >= p.max {
		if !p.shed {
			p.err = fmt.Errorf("%w: %d epochs behind", ErrPeerOverflow, len(p.queue))
			p.queue = nil
			p.cond.Broadcast()
			p.mu.Unlock()
			// Abort the sender so a worker parked in a reconnect backoff
			// returns now instead of burning the whole dial budget (the
			// window is empty — nothing shippable is lost).
			_ = p.s.Close()
			return false
		}
		// Snapshot-recoverable overflow: shed the backlog and keep the
		// peer. The sender sees the resulting sequence gap — at the next
		// hand-off, or against the replica's cursor on reconnect — and
		// re-bases the replica with a full snapshot instead of the
		// dropped epochs. No operator action; the peer never leaves the
		// fan-out.
		p.queue = p.queue[:0]
		p.overflows.Inc()
	}
	p.queue = append(p.queue, it)
	p.cond.Broadcast()
	p.mu.Unlock()
	return true
}

// fail marks the peer terminally failed, wakes its worker and aborts
// its sender (releasing a worker stuck mid-reconnect).
func (p *fanPeer) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.s != nil {
		_ = p.s.Close()
	}
}

// nurse re-drives a link whose connection died with epochs still in
// flight. ship.Sender only reconnects from inside Send and Close, so a
// worker that has handed its whole queue to the sender parks on the
// queue condvar — if the replica crashes at that moment, the unacked
// tail would sit in the sender's window until the next Send arrives
// (possibly never, on an idle stream). The nurse probes for exactly
// that state and redials, so the tail retransmits as soon as the
// replica returns and catch-up does not have to wait for new traffic.
func (p *fanPeer) nurse() {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		p.mu.Lock()
		idle := !p.busy && !p.closed && p.err == nil
		p.mu.Unlock()
		if !idle {
			continue // Send or Close is driving reconnection already
		}
		if st := p.s.Stats(); st.Connected || (st.Inflight == 0 && !st.SnapWait) {
			continue
		}
		if err := p.s.Connect(); err != nil && !errors.Is(err, ship.ErrClosed) {
			// Same terminal semantics as a failed Send: the dial budget
			// (or a permanent handshake error) drops the peer.
			p.fail(err)
			return
		}
	}
}

// run is the peer worker: hand queued epochs to the sender one at a
// time, then close the sender cleanly when the fan-out closes.
func (p *fanPeer) run() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed && p.err == nil {
			p.cond.Wait()
		}
		if p.err != nil {
			p.mu.Unlock()
			_ = p.s.Close()
			return
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			// Clean shutdown: drain the window, send EOS.
			if err := p.s.Close(); err != nil {
				p.fail(err)
			}
			return
		}
		it := p.queue[0]
		p.queue = p.queue[1:]
		p.busy = true
		p.mu.Unlock()

		if it.fr == nil {
			// Anti-entropy marker: forward best-effort. SendDigest only
			// writes when the link is caught up and aligned at it.seq;
			// a skipped digest is not an error — the next one guards.
			_ = p.s.SendDigest(it.seq, it.ts, it.digest)
			p.mu.Lock()
			p.busy = false
			p.mu.Unlock()
			continue
		}
		err := p.s.SendFrame(it.fr)

		p.mu.Lock()
		p.busy = false
		if err != nil {
			if p.err == nil {
				p.err = err
			}
			p.queue = nil
			p.mu.Unlock()
			_ = p.s.Close()
			return
		}
		// The epoch is handed off: the link's stream is complete through
		// its commit timestamp, so heartbeats may advertise it.
		if ts := it.fr.Epoch().LastCommitTS; ts > p.hbTS.Load() {
			p.hbTS.Store(ts)
		}
		p.mu.Unlock()
	}
}
