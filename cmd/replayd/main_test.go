package main

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/recovery"
)

// TestFlagValidation drives every mode's parse function through its
// invalid flag combinations and asserts each one fails up front with a
// usage error — no socket opened, no epoch generated, no mid-run panic
// — plus a valid combination per mode that must parse clean.
func TestFlagValidation(t *testing.T) {
	parse := map[string]func([]string) error{
		"primary": func(a []string) error { _, err := parseClusterFlags("primary", a); return err },
		"backup":  func(a []string) error { _, err := parseBackupFlags(a); return err },
		"cluster": func(a []string) error { _, err := parseClusterFlags("cluster", a); return err },
	}

	cases := []struct {
		name    string
		mode    string
		args    []string
		wantErr string // "" = must parse clean; otherwise a substring of the usage error
	}{
		// primary: the one-peer name of cluster — same flag set, its own
		// name on the usage errors.
		{"primary defaults", "primary", nil, ""},
		{"primary empty connect", "primary", []string{"-connect", ""}, "primary: empty address"},
		{"primary unknown workload", "primary", []string{"-workload", "ycsb"}, `unknown workload "ycsb"`},
		{"primary zero txns", "primary", []string{"-txns", "0"}, "-txns and -epoch must be positive"},
		{"primary negative epoch", "primary", []string{"-epoch", "-1"}, "-txns and -epoch must be positive"},
		{"primary zero window", "primary", []string{"-window", "0"}, "-window and -retries must be positive"},
		{"primary zero retries", "primary", []string{"-retries", "0"}, "-window and -retries must be positive"},
		{"primary negative rate", "primary", []string{"-rate", "-1"}, "must not be negative"},
		{"primary negative hb", "primary", []string{"-hb", "-1s"}, "must not be negative"},
		{"primary compress", "primary", []string{"-compress"}, ""},
		{"primary takes cluster's flags", "primary",
			[]string{"-connect", "a:1,b:2", "-max-queue", "4", "-snapshot", "-digest-every", "2"}, ""},
		{"primary digest without snapshot", "primary", []string{"-digest-every", "2"}, "primary: -digest-every requires -snapshot"},

		// backup
		{"backup defaults", "backup", nil, ""},
		{"backup supervised", "backup", []string{"-spool-dir", "s", "-ckpt-dir", "c"}, ""},
		{"backup empty listen", "backup", []string{"-listen", ""}, "-listen must not be empty"},
		{"backup unknown algo", "backup", []string{"-algo", "nope"}, `unknown algo "nope"`},
		{"backup unknown workload", "backup", []string{"-workload", "nope"}, `unknown workload "nope"`},
		{"backup zero workers", "backup", []string{"-workers", "0"}, "-workers must be positive"},
		{"backup negative gc-every", "backup", []string{"-gc-every", "-1s"}, "must not be negative"},
		{"backup spool without ckpt dir", "backup", []string{"-spool-dir", "s"}, "both -spool-dir and -ckpt-dir"},
		{"backup ckpt dir without spool", "backup", []string{"-ckpt-dir", "c"}, "both -spool-dir and -ckpt-dir"},
		{"backup bad sync policy", "backup", []string{"-spool-dir", "s", "-ckpt-dir", "c", "-sync", "maybe"}, "maybe"},
		{"backup supervised compress", "backup", []string{"-spool-dir", "s", "-ckpt-dir", "c", "-compress"}, ""},

		// cluster
		{"cluster three peers", "cluster", []string{"-connect", "a:1,b:2,c:3"}, ""},
		{"cluster defaults to one local peer", "cluster", nil, ""},
		{"cluster empty address", "cluster", []string{"-connect", "a:1,,b:2"}, "cluster: empty address"},
		{"cluster duplicate address", "cluster", []string{"-connect", "a:1,a:1"}, `duplicate address "a:1"`},
		{"cluster unknown workload", "cluster", []string{"-connect", "a:1", "-workload", "nope"}, `unknown workload "nope"`},
		{"cluster zero epoch", "cluster", []string{"-connect", "a:1", "-epoch", "0"}, "-txns and -epoch must be positive"},
		{"cluster zero window", "cluster", []string{"-connect", "a:1", "-window", "0"}, "-window and -retries must be positive"},
		{"cluster negative max-queue", "cluster", []string{"-connect", "a:1", "-max-queue", "-1"}, "must not be negative"},
		{"cluster compress", "cluster", []string{"-connect", "a:1,b:2", "-compress"}, ""},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parse[tc.mode](tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want clean parse, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want usage error containing %q, got nil", tc.wantErr)
			}
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Fatalf("want *usageError, got %T: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestFlagParseErrorIsNotUsageError: a malformed flag value — or a
// flag that no longer exists: the backup's -checkpoint and -resume
// went with its unsupervised mode — fails in flag.Parse itself, still
// up front, but not tagged as ours.
func TestFlagParseErrorIsNotUsageError(t *testing.T) {
	for name, parse := range map[string]func() error{
		"non-numeric -txns":  func() error { _, err := parseClusterFlags("primary", []string{"-txns", "many"}); return err },
		"backup -checkpoint": func() error { _, err := parseBackupFlags([]string{"-checkpoint", "x.ckpt"}); return err },
		"backup -resume":     func() error { _, err := parseBackupFlags([]string{"-resume", "x.ckpt"}); return err },
	} {
		err := parse()
		if err == nil {
			t.Fatalf("%s: want parse error", name)
		}
		var ue *usageError
		if errors.As(err, &ue) {
			t.Fatalf("%s: flag package errors must not be usageError, got %v", name, err)
		}
	}
}

// TestMaintenanceFollowsLiveNode: the vacuum/compact ticker must act on
// the node the supervisor holds now, not the one it held when the
// ticker started. A wire snapshot swaps the node under a running
// ticker; the replacement must be the node that gets compacted and
// vacuumed, and the closed original must stop being touched.
func TestMaintenanceFollowsLiveNode(t *testing.T) {
	gen, plan, err := workloadPlan("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	encs := primary.New(gen, 1).GenerateEncoded(3000, 100)
	open := func() *recovery.Supervisor {
		reg := metrics.NewRegistry()
		spool, err := recovery.OpenSpool(recovery.SpoolConfig{Dir: t.TempDir(), Policy: recovery.SyncNever, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := recovery.OpenManager(t.TempDir(), 0, reg)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := recovery.NewSupervisor(recovery.Config{
			Kind: htap.KindAETS, Plan: plan, Node: htap.Options{Workers: 2, Columnar: true},
			Spool: spool, Checkpoints: mgr, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			sup.Close()
			spool.Close()
		})
		return sup
	}
	src, tgt := open(), open()
	for i := range encs {
		if err := src.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range encs[:len(encs)/2] {
		if err := tgt.Feed(&encs[i]); err != nil {
			t.Fatal(err)
		}
	}
	src.Node().Drain()
	tgt.Node().Drain()

	var mu sync.Mutex
	frozen := map[*htap.Node]int{} // rows frozen per node the ticker acted on
	ticks := map[*htap.Node]int{}
	stop := startMaintenance(time.Millisecond, tgt.Node, func(n *htap.Node, ts int64) {
		rows := n.Compact(ts)
		n.Vacuum(ts)
		mu.Lock()
		frozen[n] += rows
		ticks[n]++
		mu.Unlock()
	})
	defer stop()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			mu.Lock()
			ok := cond()
			mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout: %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := tgt.Node()
	waitFor("original node compacted", func() bool { return frozen[before] > 0 })

	cursor, size, rc, err := (&htap.NodeSnapshotSource{N: src.Node()}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.RestoreSnapshot(cursor, size, rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	after := tgt.Node()
	if after == before {
		t.Fatal("snapshot restore did not swap the node")
	}
	waitFor("replacement node compacted", func() bool { return frozen[after] > 0 })
	mu.Lock()
	stale := ticks[before]
	mu.Unlock()
	waitFor("ticker to keep running on the replacement", func() bool { return ticks[after] > 5 })
	mu.Lock()
	defer mu.Unlock()
	if ticks[before] != stale {
		t.Fatalf("ticker still acting on the closed node: %d → %d ticks", stale, ticks[before])
	}
}
