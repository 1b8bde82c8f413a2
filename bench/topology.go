package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"aets/internal/cluster"
	"aets/internal/epoch"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/recovery"
	"aets/internal/ship"
)

// senderWindow and heartbeatEvery mirror replayd's -window and -hb.
const (
	senderWindow   = 32
	heartbeatEvery = 500 * time.Millisecond
	replayPipeline = 2
)

// wireCounters is what the byte-counting conn accumulates over every
// primary→replica link. It takes no timestamps, so it stays installed in
// untraced runs.
type wireCounters struct {
	writeBytes, writeCalls, readBytes atomic.Int64
}

type wireSnapshot struct{ writeBytes, writeCalls, readBytes int64 }

func (w *wireCounters) snapshot() wireSnapshot {
	return wireSnapshot{w.writeBytes.Load(), w.writeCalls.Load(), w.readBytes.Load()}
}

type countingConn struct {
	net.Conn
	w *wireCounters
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.writeBytes.Add(int64(n))
	c.w.writeCalls.Add(1)
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.readBytes.Add(int64(n))
	return n, err
}

// feedShim sits between the receiver and the supervisor in traced runs
// and stamps FeedFrame's entry and exit per epoch (ns since base).
type feedShim struct {
	sup         *recovery.Supervisor
	base        time.Time
	enter, exit []int64 // indexed by epoch seq
}

func (f *feedShim) Feed(enc *epoch.Encoded) error { return f.sup.Feed(enc) }
func (f *feedShim) Heartbeat(ts int64) error      { return f.sup.Heartbeat(ts) }

func (f *feedShim) FeedFrame(flags byte, payload []byte, enc *epoch.Encoded) error {
	f.enter[enc.Seq] = int64(time.Since(f.base))
	err := f.sup.FeedFrame(flags, payload, enc)
	f.exit[enc.Seq] = int64(time.Since(f.base))
	return err
}

// replica is one supervised backup behind a loopback listener.
type replica struct {
	id        string
	spool     *recovery.Spool
	sup       *recovery.Supervisor
	node      *htap.Node
	served    chan struct{} // closed when the accept loop has ended
	serveErr  error
	ln        net.Listener
	shim      *feedShim          // traced runs only
	breakdown *metrics.Breakdown // traced runs only
}

// topology is the whole fleet of one run: N replicas, the fan-out that
// feeds them over TCP and the router that reads from them.
type topology struct {
	dir      string
	base     time.Time // origin of every stamp taken on this fleet
	traced   bool      // replicas carry a feedShim and a Breakdown
	replicas []*replica
	fan      *cluster.Fanout
	router   *cluster.Router
	wire     *wireCounters
}

// startTopology wires primary→Fanout→Receiver→Supervisor→Node→Router the
// way cmd/replayd does, in-process. With traced set, every replica gets
// a feedShim and records the Table II breakdown.
func startTopology(s *stream, p Properties, outDir string, traced bool) (_ *topology, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	t := &topology{dir: dir, base: time.Now(), traced: traced, wire: &wireCounters{}}
	defer func() {
		if err != nil {
			t.release() // no fan-out yet: nothing is connected
		}
	}()

	// One registry per topology: the packages register by name, and two
	// fleets in one process (trace mode) must not share series.
	reg := metrics.NewRegistry()
	cm := cluster.NewMetrics(reg)
	members := cluster.NewMembership(cm)
	peers := make([]cluster.Peer, p.Replicas)
	for i := range peers {
		r, err := startReplica(s, p, filepath.Join(dir, fmt.Sprintf("r%d", i)), fmt.Sprintf("replica-%d", i), reg, traced, t.base)
		if err != nil {
			return nil, err
		}
		t.replicas = append(t.replicas, r)
		if err := members.Add(cluster.NewSupervisorReplica(r.id, r.sup)); err != nil {
			return nil, err
		}
		addr := r.ln.Addr().String()
		peers[i] = cluster.Peer{ID: r.id, Sender: ship.SenderConfig{
			Dial: func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return countingConn{c, t.wire}, nil
			},
			Schema:         s.schema,
			Window:         senderWindow,
			HeartbeatEvery: heartbeatEvery,
			Compress:       true,
		}}
	}
	if t.router, err = cluster.NewRouter(cluster.RouterConfig{Members: members, Metrics: cm}); err != nil {
		return nil, err
	}
	t.fan, err = cluster.NewFanout(cluster.FanoutConfig{Peers: peers, Registry: reg})
	return t, err
}

func startReplica(s *stream, p Properties, dir, id string, reg *metrics.Registry, traced bool, base time.Time) (*replica, error) {
	r := &replica{id: id, served: make(chan struct{})}
	// Workers stays 0: the replay thread budget defaults to GOMAXPROCS.
	opts := htap.Options{Pipeline: replayPipeline, Columnar: p.Columnar, Metrics: reg}
	if traced {
		r.breakdown = &metrics.Breakdown{}
		opts.Breakdown = r.breakdown
	}
	var err error
	r.spool, err = recovery.OpenSpool(recovery.SpoolConfig{
		Dir: filepath.Join(dir, "spool"), Policy: recovery.SyncInterval,
		Interval: recovery.DefaultSyncInterval, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	mgr, err := recovery.OpenManager(filepath.Join(dir, "ckpt"), 0, reg)
	if err != nil {
		r.spool.Close()
		return nil, err
	}
	r.sup, err = recovery.NewSupervisor(recovery.Config{
		Kind: htap.KindAETS, Plan: s.plan, Node: opts,
		Spool: r.spool, Checkpoints: mgr, Metrics: reg,
	})
	if err == nil {
		err = r.sup.Start()
	}
	if err != nil {
		r.spool.Close()
		return nil, err
	}
	r.node = r.sup.Node()

	var applier ship.Applier = r.sup
	if traced {
		r.shim = &feedShim{sup: r.sup, base: base,
			enter: make([]int64, len(s.encs)), exit: make([]int64, len(s.encs))}
		applier = r.shim
	}
	rcv, err := ship.NewReceiver(ship.ReceiverConfig{
		Schema: s.schema, Resume: r.sup.NextSeq(), Applier: applier,
		Metrics: ship.NewPeerMetrics(reg, id+"-rx"), Drain: r.sup.Checkpoint, Compress: true,
	})
	if err == nil {
		r.ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		r.sup.Close()
		r.spool.Close()
		return nil, err
	}
	go func() {
		defer close(r.served)
		for {
			conn, err := r.ln.Accept()
			if err != nil {
				return // listener closed
			}
			done, err := rcv.Serve(conn)
			if err != nil {
				r.serveErr = err
			}
			if done {
				return
			}
		}
	}()
	return r, nil
}

// close ends the stream cleanly (EOS, which checkpoints every replica as
// replayd's Drain hook does), waits for every goroutine the topology
// started and removes its directory. Digests must be taken before.
func (t *topology) close() error {
	err := t.fan.Close()
	for _, r := range t.replicas {
		// A link that shipped something has had its EOS acknowledged by
		// now; one that never connected sends none, so unblock Accept.
		r.ln.Close()
		<-r.served
		err = errors.Join(err, r.serveErr)
	}
	return errors.Join(err, t.release())
}

// release frees what a topology holds without ending the stream: the
// path for a fleet that was never fed or whose run already failed.
func (t *topology) release() error {
	var err error
	for _, r := range t.replicas {
		r.ln.Close()
		err = errors.Join(err, r.sup.Close(), r.spool.Close())
	}
	return errors.Join(err, os.RemoveAll(t.dir))
}

// spoolBytes sums the on-disk size of every replica's spool.
func (t *topology) spoolBytes() int64 {
	var n int64
	for i := range t.replicas {
		ents, _ := os.ReadDir(filepath.Join(t.dir, fmt.Sprintf("r%d", i), "spool"))
		for _, e := range ents {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}
