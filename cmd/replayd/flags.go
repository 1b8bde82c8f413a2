package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"aets/internal/htap"
	"aets/internal/recovery"
)

// All three modes parse with ContinueOnError and validate every flag
// combination up front, so a bad invocation dies with a usage error
// before any socket is opened or epoch generated — never as a mid-run
// panic. The parse functions are separated from the run functions so
// the validation table is testable without side effects.

// usageError tags a validation failure so main can exit with the
// conventional usage status (2) instead of the runtime-failure status.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// knownWorkload mirrors workloadPlan's cases without building the
// generator.
func knownWorkload(name string) bool {
	switch name {
	case "tpcc", "chbench", "seats", "bustracker":
		return true
	}
	return false
}

func knownAlgo(name string) bool {
	for _, k := range htap.Kinds {
		if string(k) == name {
			return true
		}
	}
	return false
}

type backupFlags struct {
	listen, algo, workload string
	workers                int
	once                   bool
	gcEvery                time.Duration
	columnar               bool
	compactEvery           time.Duration
	httpAddr               string
	spoolDir, ckptDir      string
	ckptEvery              int
	ckptInterval           time.Duration
	syncPolicy             recovery.SyncPolicy
	compress               bool
	applyProfiles          func()
}

func parseBackupFlags(args []string) (*backupFlags, error) {
	fs := flag.NewFlagSet("backup", flag.ContinueOnError)
	c := &backupFlags{}
	fs.StringVar(&c.listen, "listen", ":7070", "listen address")
	fs.StringVar(&c.algo, "algo", "aets", "replay algorithm: aets, tplr, atr, c5")
	fs.IntVar(&c.workers, "workers", 8, "replay workers")
	fs.StringVar(&c.workload, "workload", "tpcc", "workload schema (for grouping): tpcc, chbench, seats, bustracker")
	fs.BoolVar(&c.once, "once", true, "exit after the first clean end-of-stream")
	fs.DurationVar(&c.gcEvery, "gc-every", 0, "vacuum version chains at this interval (0 disables)")
	fs.BoolVar(&c.columnar, "columnar", false, "freeze cold data into columnar segments and plan reads as segment + delta merges")
	fs.DurationVar(&c.compactEvery, "compact-every", 0, "columnar compaction cadence (0 = reuse -gc-every; requires -columnar when set)")
	fs.StringVar(&c.httpAddr, "http", "", "serve /metrics /healthz /varz /debug/pprof on this address (empty disables)")
	fs.StringVar(&c.spoolDir, "spool-dir", "", "durable epoch spool directory (requires -ckpt-dir; with neither, both live in a scratch directory removed on exit)")
	fs.StringVar(&c.ckptDir, "ckpt-dir", "", "atomic checkpoint directory (requires -spool-dir)")
	fs.IntVar(&c.ckptEvery, "ckpt-every", 0, "checkpoint after this many applied epochs (0 disables)")
	fs.DurationVar(&c.ckptInterval, "ckpt-interval", 30*time.Second, "checkpoint at least this often while epochs arrive (0 disables)")
	syncPolicy := fs.String("sync", "always", "spool sync policy: always, interval, never")
	fs.BoolVar(&c.compress, "compress", false, "advertise flate frame compression to senders (raw frames still accepted)")
	c.applyProfiles = contentionProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.listen == "" {
		return nil, usagef("backup: -listen must not be empty")
	}
	if !knownAlgo(c.algo) {
		return nil, usagef("backup: unknown algo %q (aets, tplr, atr, c5)", c.algo)
	}
	if !knownWorkload(c.workload) {
		return nil, usagef("backup: unknown workload %q (tpcc, chbench, seats, bustracker)", c.workload)
	}
	if c.workers <= 0 {
		return nil, usagef("backup: -workers must be positive (got %d)", c.workers)
	}
	if c.ckptEvery < 0 || c.ckptInterval < 0 || c.gcEvery < 0 {
		return nil, usagef("backup: -ckpt-every, -ckpt-interval and -gc-every must not be negative")
	}
	if c.compactEvery < 0 {
		return nil, usagef("backup: -compact-every must not be negative")
	}
	if c.compactEvery > 0 && !c.columnar {
		return nil, usagef("backup: -compact-every requires -columnar")
	}
	if (c.spoolDir == "") != (c.ckptDir == "") {
		return nil, usagef("backup: give both -spool-dir and -ckpt-dir, or neither (got spool-dir=%q, ckpt-dir=%q)", c.spoolDir, c.ckptDir)
	}
	var err error
	if c.syncPolicy, err = recovery.ParseSyncPolicy(*syncPolicy); err != nil {
		return nil, usagef("backup: %v", err)
	}
	return c, nil
}

type clusterFlags struct {
	connects              []string
	workload              string
	txns, epochSize       int
	seed                  int64
	rate, window, retries int
	hb                    time.Duration
	maxQueue              int
	snapshot              bool
	digestEvery           int
	columnar              bool
	compactEvery          time.Duration
	httpAddr              string
	compress              bool
	applyProfiles         func()
}

// parseClusterFlags parses the sender side's one flag set: `primary`
// is `cluster` with one peer, so mode only names the flag set and
// prefixes its usage errors.
func parseClusterFlags(mode string, args []string) (*clusterFlags, error) {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	c := &clusterFlags{}
	connect := fs.String("connect", "localhost:7070", "comma-separated replica addresses, one or more")
	fs.StringVar(&c.workload, "workload", "tpcc", "workload: tpcc, chbench, seats, bustracker")
	fs.IntVar(&c.txns, "txns", 50000, "transactions to ship")
	fs.IntVar(&c.epochSize, "epoch", 2048, "epoch size")
	fs.Int64Var(&c.seed, "seed", 1, "seed")
	fs.IntVar(&c.rate, "rate", 0, "epochs per second pacing (0 = as fast as possible)")
	fs.IntVar(&c.window, "window", 32, "per-link max in-flight (unacked) epochs")
	fs.DurationVar(&c.hb, "hb", 500*time.Millisecond, "per-link heartbeat interval (0 disables)")
	fs.IntVar(&c.retries, "retries", 8, "per-link consecutive reconnect attempts before the peer is dropped")
	fs.IntVar(&c.maxQueue, "max-queue", 0, "per-peer divergence buffer in epochs; a peer further behind is dropped — or snapshot re-based with -snapshot (0 = unbounded)")
	fs.BoolVar(&c.snapshot, "snapshot", false, "serve wire-level snapshot catch-up: mirror the stream into a local node and re-base replicas too stale to resume (overflowed -max-queue, compacted spool) instead of dropping them")
	fs.IntVar(&c.digestEvery, "digest-every", 0, "ship an anti-entropy state digest every N epochs; replicas whose committed state diverges are repaired via snapshot (requires -snapshot; 0 disables)")
	fs.BoolVar(&c.columnar, "columnar", false, "run the snapshot mirror node columnar: freeze cold data into segments (requires -snapshot)")
	fs.DurationVar(&c.compactEvery, "compact-every", 0, "mirror-node columnar compaction cadence (0 disables; requires -columnar)")
	fs.StringVar(&c.httpAddr, "http", "", "serve /metrics /healthz /varz /debug/pprof on this address (empty disables)")
	fs.BoolVar(&c.compress, "compress", false, "negotiate flate frame compression per peer (a peer that lacks it still gets raw frames)")
	c.applyProfiles = contentionProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, a := range strings.Split(*connect, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, usagef("%s: empty address in -connect %q", mode, *connect)
		}
		if seen[a] {
			return nil, usagef("%s: duplicate address %q in -connect", mode, a)
		}
		seen[a] = true
		c.connects = append(c.connects, a)
	}
	if !knownWorkload(c.workload) {
		return nil, usagef("%s: unknown workload %q (tpcc, chbench, seats, bustracker)", mode, c.workload)
	}
	if c.txns <= 0 || c.epochSize <= 0 {
		return nil, usagef("%s: -txns and -epoch must be positive (got %d, %d)", mode, c.txns, c.epochSize)
	}
	if c.window <= 0 || c.retries <= 0 {
		return nil, usagef("%s: -window and -retries must be positive", mode)
	}
	if c.rate < 0 || c.hb < 0 || c.maxQueue < 0 {
		return nil, usagef("%s: -rate, -hb and -max-queue must not be negative", mode)
	}
	if c.digestEvery < 0 {
		return nil, usagef("%s: -digest-every must not be negative (got %d)", mode, c.digestEvery)
	}
	if c.digestEvery > 0 && !c.snapshot {
		return nil, usagef("%s: -digest-every requires -snapshot (a detected mismatch is repaired by snapshot)", mode)
	}
	if c.columnar && !c.snapshot {
		return nil, usagef("%s: -columnar requires -snapshot (it configures the snapshot mirror node)", mode)
	}
	if c.compactEvery < 0 {
		return nil, usagef("%s: -compact-every must not be negative", mode)
	}
	if c.compactEvery > 0 && !c.columnar {
		return nil, usagef("%s: -compact-every requires -columnar", mode)
	}
	return c, nil
}
