// Command replayd demonstrates primary→backup log shipping over TCP
// using the internal/ship replication transport. There is one sender
// path and one backup path.
//
// The backup mode receives the stream under the recovery supervisor
// (internal/recovery): epochs are spooled durably before they are
// acknowledged and replayed with a chosen algorithm, checkpoints are
// written atomically on a schedule, a hard-killed process restarted on
// the same -spool-dir/-ckpt-dir restores from the newest valid
// checkpoint plus the spool tail and resumes the stream at its cursor,
// a replica too stale to resume is re-based by a wire snapshot, and a
// poison epoch is quarantined instead of crash-looping the replica.
// Given neither directory it runs the same path over a scratch
// directory it removes on exit.
//
//	replayd backup -listen :7070 -algo aets -workers 8 \
//	    -spool-dir spool/ -ckpt-dir ckpt/ -ckpt-every 64 -sync always
//	replayd primary -connect localhost:7070 -workload tpcc -txns 50000 -window 32
//	... kill -9 the backup, restart it with the same directories ...
//
// The cluster mode executes a benchmark workload, batches it into
// epochs and fans the stream out to every -connect backup at once
// (internal/cluster), each over its own independent link with a
// bounded in-flight window, heartbeats and automatic reconnect;
// primary is the same mode under its one-peer name:
//
//	replayd backup -listen :7070 & replayd backup -listen :7071 &
//	replayd cluster -connect localhost:7070,localhost:7071 -txns 50000
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/obsrv"
	"aets/internal/recovery"
	"aets/internal/ship"
	"aets/internal/workload"
)

// contentionProfileFlags registers -mutexprofile and -blockprofile on fs
// and returns a function to apply them after parsing. The profiles are
// scraped through the -http server's /debug/pprof/{mutex,block} endpoints;
// both samplers are off by default because they add a timestamp read to
// every contended lock hand-off.
func contentionProfileFlags(fs *flag.FlagSet) (apply func()) {
	mutexFrac := fs.Int("mutexprofile", 0,
		"sample 1/n of contended mutex events for /debug/pprof/mutex (0 disables)")
	blockRate := fs.Int("blockprofile", 0,
		"sample blocking events ≥ n ns for /debug/pprof/block (0 disables)")
	return func() {
		if *mutexFrac > 0 {
			runtime.SetMutexProfileFraction(*mutexFrac)
		}
		if *blockRate > 0 {
			runtime.SetBlockProfileRate(*blockRate)
		}
	}
}

// serveHTTP boots the observability endpoints when -http is set. It
// returns a no-op closer when addr is empty.
func serveHTTP(addr string, opts obsrv.Options) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	srv, err := obsrv.Serve(addr, opts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("observability on http://%s (/metrics /healthz /varz /debug/pprof/)\n", srv.Addr())
	return func() { srv.Close() }, nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: replayd primary|backup|cluster [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "primary", "cluster":
		err = runCluster(os.Args[1], os.Args[2:])
	case "backup":
		err = runBackup(os.Args[2:])
	default:
		err = &usageError{msg: fmt.Sprintf("unknown mode %q (primary, backup, cluster)", os.Args[1])}
	}
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// workloadPlan builds the generator and grouping plan for a workload
// name; both modes must agree on it (enforced by the schema hash in the
// ship handshake).
func workloadPlan(name string) (workload.Generator, *grouping.Plan, error) {
	switch name {
	case "tpcc":
		gen := workload.NewTPCC(20)
		return gen, grouping.Build(htap.TPCCRates(1000), workload.TableIDs(gen.Tables()),
			grouping.Options{Eps: 0.05, MinPts: 2}), nil
	case "chbench":
		gen := workload.NewCHBench(20)
		return gen, grouping.Build(htap.CHRates(gen), workload.TableIDs(gen.Tables()),
			grouping.Options{PerTable: true}), nil
	case "seats":
		gen := workload.NewSEATS()
		return gen, grouping.SingleGroup(workload.TableIDs(gen.Tables())), nil
	case "bustracker":
		bt := workload.NewBusTracker()
		return bt, grouping.Build(bt.Rates(0), workload.TableIDs(bt.Tables()),
			grouping.Options{Eps: 0.3, MinPts: 2}), nil
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
}

// replayPipeline is the backup's replay pipeline depth for aets/tplr: two
// epochs in flight, so epoch N+1 dispatches while N replays.
const replayPipeline = 2

// runBackup is the crash-tolerant backup: every received epoch is
// spooled durably before it is acknowledged, checkpoints are cut
// atomically on a schedule, and the replay supervisor restores
// checkpoint + spool tail on startup and rebuilds the node on fatal
// replay errors instead of exiting. Without -spool-dir/-ckpt-dir the
// same path runs over a scratch directory that is removed on exit.
func runBackup(args []string) error {
	c, err := parseBackupFlags(args)
	if err != nil {
		return err
	}
	c.applyProfiles()

	gen, plan, err := workloadPlan(c.workload)
	if err != nil {
		return err
	}

	// Columnar compaction rides the GC cadence unless given its own.
	compactEvery := c.compactEvery
	if c.columnar && compactEvery == 0 {
		compactEvery = c.gcEvery
	}

	spoolDir, ckptDir, scratch := c.spoolDir, c.ckptDir, ""
	if spoolDir == "" {
		scratch, err = os.MkdirTemp("", "replayd-backup-")
		if err != nil {
			return err
		}
		spoolDir, ckptDir = filepath.Join(scratch, "spool"), filepath.Join(scratch, "ckpt")
	}
	spool, err := recovery.OpenSpool(recovery.SpoolConfig{Dir: spoolDir, Policy: c.syncPolicy})
	if err != nil {
		return err
	}
	mgr, err := recovery.OpenManager(ckptDir, 0, nil)
	if err != nil {
		return err
	}
	sup, err := recovery.NewSupervisor(recovery.Config{
		Kind:                  htap.Kind(c.algo),
		Plan:                  plan,
		Node:                  htap.Options{Workers: c.workers, Pipeline: replayPipeline, Columnar: c.columnar},
		Spool:                 spool,
		Checkpoints:           mgr,
		CheckpointEveryEpochs: c.ckptEvery,
		CheckpointInterval:    c.ckptInterval,
	})
	if err != nil {
		return err
	}
	// One teardown for a clean exit and for SIGINT/SIGTERM: nothing
	// writes under the directories once supervisor and spool are closed,
	// so the scratch directory can go. (kill -9 skips it by definition;
	// that is what real directories are for.)
	var once sync.Once
	teardown := func() {
		once.Do(func() {
			sup.Close()
			spool.Close()
			if scratch != "" {
				os.RemoveAll(scratch)
			}
		})
	}
	defer teardown()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { // lives until the process exits
		s := <-sig
		teardown()
		fmt.Fprintln(os.Stderr, "backup:", s)
		os.Exit(1)
	}()
	if err := sup.Start(); err != nil {
		return err
	}

	if c.gcEvery > 0 {
		defer startMaintenance(c.gcEvery, sup.Node, func(n *htap.Node, ts int64) { n.Vacuum(ts) })()
	}
	if compactEvery > 0 {
		defer startMaintenance(compactEvery, sup.Node, func(n *htap.Node, ts int64) { n.Compact(ts) })()
	}

	rcv, err := ship.NewReceiver(ship.ReceiverConfig{
		Schema:  ship.SchemaHash(c.workload, workload.TableIDs(gen.Tables())),
		Resume:  sup.NextSeq(),
		Applier: sup,
		Metrics: ship.NewMetrics(metrics.Default),
		Drain:   sup.Checkpoint,
		// A digest mismatch survives link (and process) lifetimes: every
		// handshake re-requests snapshot repair until one lands.
		NeedSnapshot: sup.NeedSnapshot,
		Compress:     c.compress,
	})
	if err != nil {
		return err
	}

	closeHTTP, err := serveHTTP(c.httpAddr, obsrv.Options{
		Health: func() obsrv.Health {
			h := sup.Health()
			h.ShipConnected = metrics.Default.Gauge("ship_connected").Load() != 0
			return h
		},
	})
	if err != nil {
		return err
	}
	defer closeHTTP()

	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("backup (%s, %d workers) listening on %s, cursor %d, spool %s (sync=%s), checkpoints %s\n",
		c.algo, c.workers, c.listen, rcv.Cursor(), spoolDir, c.syncPolicy, ckptDir)

	defer startTicker(time.Second, func() {
		st := rcv.Stats()
		h := sup.Health()
		fmt.Printf("  %8d txns received, cursor %d, visible ts %d, state %s, restarts %d, quarantined %d | %s | %s\n",
			st.Txns, st.Cursor, h.VisibleTS, h.Supervisor, h.Restarts, h.Quarantined,
			metrics.Default.Line("ship_"), metrics.Default.Line("recovery_"))
	})()

	start := time.Now()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		done, err := rcv.Serve(conn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stream:", err)
		}
		if sup.State() == recovery.StateFatal {
			return fmt.Errorf("supervisor fatal: %s", sup.Stats().LastErr)
		}
		if done && c.once {
			break
		}
	}
	st := rcv.Stats()
	h := sup.Health()
	elapsed := time.Since(start)
	fmt.Printf("replayed %d txns (%d entries, %d duplicates dropped) in %v — %.0f txns/s, state %s, restarts %d, quarantined %d, final visible ts %d\n",
		st.Txns, st.Entries, st.Duplicates, elapsed.Round(time.Millisecond),
		float64(st.Txns)/elapsed.Seconds(), h.Supervisor, h.Restarts, h.Quarantined, h.VisibleTS)
	return nil
}

// startMaintenance runs fn every interval against whatever node the
// supervisor holds at that tick, at that node's visible timestamp: a
// rebuild or a wire snapshot swaps the node, and a loop bound to one
// node would keep ticking on the closed one. Ticks with no node
// (mid-rebuild, fatal) or nothing visible yet are skipped.
func startMaintenance(every time.Duration, node func() *htap.Node, fn func(n *htap.Node, visibleTS int64)) (stop func()) {
	return startTicker(every, func() {
		if n := node(); n != nil {
			if ts := n.VisibleTS(); ts > 0 {
				fn(n, ts)
			}
		}
	})
}

// startTicker runs fn every interval until the returned stop function
// is called.
func startTicker(every time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() { close(done) }
}
