// Command bench is the repository's end-to-end freshness benchmark: it
// wires primary → Fanout → Receiver → Supervisor/Spool → Node → Router →
// Snapshot in one process over loopback TCP, drives a named workload
// through it and reports commit-to-visible and commit-to-read latency,
// throughput, CPU and bytes per transaction, with a per-layer budget from
// a separate traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aets/internal/htap"
	"aets/internal/memtable"
	"aets/internal/reference"
)

const (
	defaultSeconds = 10
	defaultWarmup  = 3
	minSetups      = 3
	maxSetups      = 9
	setupBudget    = 4 * time.Second
	defaultOutDir  = "bench/out"
)

// report is everything one run of one workload produced.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Env         environment        `json:"env"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Invalid     string             `json:"invalid,omitempty"` // why the timings should not be trusted
	SampleCount map[string]int     `json:"samples"`
	Metrics     map[string]metric  `json:"metrics"`
	EndToEnd    map[string]metric  `json:"end_to_end,omitempty"` // traced runs: the untraced half
	Budgets     []budget           `json:"budgets,omitempty"`
	Tails       map[string]summary `json:"tails,omitempty"`
}

// contractLine is the result line the acceptance driver parses.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) line() contractLine {
	return contractLine{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// referenceDigest applies epochs [0,to) serially to a fresh memtable. The
// result is kept on the stream: every closed pass asks for the same one.
func referenceDigest(s *stream, to int) (uint64, error) {
	if d, ok := s.refDigests[to]; ok {
		return d, nil
	}
	mt := memtable.New()
	for i := 0; i < to; i++ {
		txns, err := s.encs[i].Decode()
		if err != nil {
			return 0, err
		}
		reference.Apply(mt, txns)
	}
	d := htap.StateDigest(mt)
	s.refDigests[to] = d
	return d, nil
}

// measure runs the workload once over s — one open-loop pass on topo, or
// a warm-up pass on topo and then closed-loop passes on fresh fleets
// until the window is used up — and returns what the measured part
// recorded. It closes topo.
func (w *workloadRun) measure(s *stream, topo *topology) (*samples, error) {
	acc := &samples{}
	finish := func(ps *pass, runErr error, keep bool) error {
		if runErr != nil {
			ps.topo.release()
			return runErr
		}
		if keep {
			want, err := referenceDigest(s, ps.to)
			if err != nil {
				return errors.Join(err, ps.topo.release())
			}
			ps.checkDigests(want)
			acc.endState(ps)
		}
		if err := ps.topo.close(); err != nil {
			return err
		}
		if keep {
			acc.add(ps)
		}
		return nil
	}

	if w.p.Rate > 0 {
		ps, err := w.runOpenLoop(s, topo)
		return acc, finish(ps, err, true)
	}

	// Closed loop: the set-up's fleet takes a discarded quarter-length
	// pass, then every measured pass gets a fleet of its own.
	traced := topo.traced
	ps, err := w.runClosedPass(s, topo, max(2, w.epochs/4))
	if err := finish(ps, err, false); err != nil {
		return acc, err
	}
	for start := time.Now(); len(acc.ingest) == 0 || time.Since(start).Seconds() < w.cfg.Seconds; {
		topo, err := startTopology(s, w.p, w.cfg.OutDir, traced)
		if err != nil {
			return acc, err
		}
		ps, err := w.runClosedPass(s, topo, w.epochs)
		if err := finish(ps, err, true); err != nil {
			return acc, err
		}
	}
	return acc, nil
}

// execute performs set-up (several times when untraced, so that setup_s
// is a median), the untraced measurement and, when traced, a second
// measurement with the shims in, the drills and the trace file.
func (w *workloadRun) execute(traced bool) (*report, error) {
	rep := &report{Workload: w.name, Seed: w.cfg.Seed, Seconds: w.cfg.Seconds, Traced: traced,
		Env: currentEnvironment(), SampleCount: map[string]int{}}

	// Set up at least minSetups times, and a short set-up — whose timing
	// is relatively noisier — up to maxSetups times within setupBudget.
	// A traced run does not report setup_s, so it sets up once.
	var setups []float64
	var spent time.Duration
	again := func() bool {
		n := len(setups)
		if traced {
			return n == 0
		}
		return n < minSetups || n < maxSetups && spent < setupBudget
	}
	var s *stream
	var topo *topology
	for again() {
		if topo != nil {
			if err := topo.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if s, topo, d, err = w.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
	}

	plain, err := w.measure(s, topo)
	if err != nil {
		return nil, err
	}
	rep.fold(plain)
	e2e := plain.endToEndMetrics(setups)
	rep.Tails = map[string]summary{"fresh_ms": summarize(plain.freshMS), "probe_ms": summarize(plain.readMS)}
	if !traced {
		rep.Metrics = e2e
		rep.validate(plain)
		return rep, nil
	}

	if topo, err = startTopology(s, w.p, w.cfg.OutDir, true); err != nil {
		return nil, err
	}
	if err := w.warmPrefix(s, topo); err != nil {
		return nil, errors.Join(err, topo.release())
	}
	tr, err := w.measure(s, topo)
	if err != nil {
		return nil, err
	}
	rep.fold(tr)
	d, err := runDrills(s, w.p, w.cfg.OutDir)
	if err != nil {
		return nil, err
	}
	rep.Budgets = []budget{makeBudget(tr.epochReqs), makeBudget(tr.readReqs)}
	rep.EndToEnd = e2e
	rep.Metrics = tr.perLayerMetrics(d, e2e["fresh_p50_ms"].Value, rep.Budgets)
	rep.Tails["traced_fresh_ms"] = summarize(tr.freshMS)
	rep.Tails["traced_probe_ms"] = summarize(tr.readMS)
	rep.validate(tr)

	tf := traceFile{Workload: w.name, Seed: w.cfg.Seed, Budgets: rep.Budgets}
	for _, reqs := range [][]request{tr.epochReqs, tr.readReqs} {
		for _, r := range reqs {
			tf.Spans = append(tf.Spans, r...)
		}
	}
	return rep, writeTrace(w.cfg.OutDir, tf)
}

func (r *report) fold(a *samples) {
	r.Attempted += a.attempted
	r.Failed += len(a.failures)
	r.Failures = append(r.Failures, a.failures...)
	r.Correct = r.Failed == 0
	r.SampleCount["epochs"] += a.epochs
	r.SampleCount["reads"] += a.reads
	r.SampleCount["txns"] += a.txns
}

// validate flags an open-loop run whose timings describe the driver or a
// growing backlog rather than the system.
func (r *report) validate(a *samples) {
	var why []string
	if !a.openLoop {
		return // a closed loop has no schedule to be late for and no backlog to grow
	}
	if late := median(a.lateUS); late > maxLateUS {
		why = append(why, fmt.Sprintf("driver ran late: median %.0f us > %.0f us", late, maxLateUS))
	}
	if a.backlogGrowth > maxBacklogGrowth {
		why = append(why, fmt.Sprintf("backlog grew: fresh median of the last fifth is %.2f× the first fifth", a.backlogGrowth))
	}
	r.Invalid = strings.Join(why, "; ")
}

func newRun(name string, cfg runConfig) (*workloadRun, error) {
	p, ok := Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	w := &workloadRun{}
	return w, w.Init(name, p, cfg)
}

func runOne(name string, cfg runConfig, traced bool) (*report, error) {
	w, err := newRun(name, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := w.execute(traced)
	if err != nil {
		return nil, err
	}
	if rep.Invalid != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: INVALID RUN: %s\n", name, rep.Invalid)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", name, f)
	}
	return rep, nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same stream")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured window per workload, seconds")
		trace    = flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics instead of the end-to-end ones")
		list     = flag.Bool("list", false, "list the registered workloads and exit")
		repeat   = flag.Int("repeat", 0, "run every selected workload this many times (seed, seed+1, …) and write the set to -out")
		out      = flag.String("out", "", "with -repeat: file to write the run set to (default <outdir>/runs.json)")
		compare  = flag.Bool("compare", false, "compare two run sets: bench -compare A.json B.json")
		outDir   = flag.String("outdir", defaultOutDir, "directory for spools, checkpoints, traces and run sets")
		verbose  = flag.Bool("v", false, "print the full report of each run on standard error")
	)
	flag.Parse()

	switch {
	case *list:
		for _, n := range workloadNames() {
			fmt.Printf("%-22s %s\n", n, Workloads[n].Why)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Warmup: defaultWarmup, Scale: 1, OutDir: *outDir}

	if *repeat > 0 {
		path := *out
		if path == "" {
			path = *outDir + "/runs.json"
		}
		if err := repeatRuns(names, cfg, *repeat, path); err != nil {
			fatal(err)
		}
		return
	}

	lines := map[string]contractLine{}
	ok := true
	for _, n := range names {
		rep, err := runOne(n, cfg, *trace != 0)
		if err != nil {
			fatal(err)
		}
		if *verbose {
			buf, _ := json.MarshalIndent(rep, "", "  ")
			fmt.Fprintln(os.Stderr, string(buf))
		}
		lines[n] = rep.line()
		ok = ok && rep.Correct
	}
	// One workload prints the bare result object; several print one
	// object keyed by workload. Either way it is the last line of stdout.
	var last any = lines
	if len(names) == 1 {
		last = lines[names[0]]
	}
	buf, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
