package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the code to.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclarationsMatchBenchmarkFile: BENCHMARK.json and the code name the
// same workloads and the same metrics with the same units.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the registry has %d", len(bf.Workloads), len(Workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := Workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not registered", w.Name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(file), len(code))
		}
		units := map[string]string{}
		for _, d := range code {
			units[d.name] = d.unit
		}
		for _, m := range file {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s], the code has unit %q (declared=%v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestSmokeEveryWorkload runs every registered workload at about a
// thirtieth of its size, traced (which also runs the untraced half and
// the drills), and requires every declared metric to come out finite
// with its unit, every replica to match the serial reference and the
// per-layer budget to add up.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small fleets over loopback TCP")
	}
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{Seed: 1, Seconds: 1, Warmup: 0.3, Scale: 1.0 / 30, OutDir: t.TempDir()}
			rep, err := runOne(name, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failures=%v", rep.Correct, rep.Attempted, rep.Failures)
			}
			want := func(kind string, defs []struct{ Name, Unit string }, got map[string]metric) {
				if len(got) != len(defs) {
					t.Errorf("%s: %d metrics emitted, %d declared", kind, len(got), len(defs))
				}
				for _, d := range defs {
					m, ok := got[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %s = %+v (emitted=%v), want a finite value in %s", kind, d.Name, m, ok, d.Unit)
					}
				}
			}
			want("end_to_end", bf.EndToEnd, rep.EndToEnd)
			want("per_layer", bf.PerLayer, rep.Metrics)
			for _, d := range bf.EndToEnd {
				if rep.EndToEnd[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, rep.EndToEnd[d.Name].Value)
				}
			}
			for _, b := range rep.Budgets {
				// A two-epoch closed pass has no median to speak of.
				if b.N >= 5 && math.Abs(b.OffFrac) > 0.10 {
					t.Errorf("budget of %s sums to %.3f ms against a median of %.3f ms", b.Root, b.SumMS, b.P50MS)
				}
			}
			if _, err := os.Stat(cfg.OutDir + "/trace_" + name + ".json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			if left, _ := os.ReadDir(cfg.OutDir); len(left) != 1 {
				t.Errorf("run left %d entries in its out dir, want only the trace", len(left))
			}
		})
	}
}

// TestLatencyCountsFromDueInstant stalls the driver for 100 ms, starting
// one epoch period before an epoch's cut is due. The schedule must not
// move: that epoch and the ones that fell due during the stall keep their
// due instants, and their lateness and freshness include what is left of
// the stall when they fall due.
func TestLatencyCountsFromDueInstant(t *testing.T) {
	p := Properties{Generator: "bustracker", Rate: 2000, EpochSize: 50, Replicas: 1}
	w := &workloadRun{}
	cfg := runConfig{Seed: 1, Seconds: 0.5, Warmup: 0.25, Scale: 1, OutDir: t.TempDir()}
	if err := w.Init("stall", p, cfg); err != nil {
		t.Fatal(err)
	}
	s, topo, _, err := w.setUp()
	if err != nil {
		t.Fatal(err)
	}
	const stall = 100 * time.Millisecond
	ps := newPass(w, s, topo, 0, w.epochs)
	done := ps.watch()
	origin := ps.now() + int64(5*time.Millisecond)
	ps.windowStart = origin + int64(cfg.Warmup*1e9)
	stalled := -1
	err = ps.pushOpen(origin, float64(p.Rate), func() {
		stalled = int(ps.lastSent.Load()) + 1
		time.Sleep(stall)
	})
	if err == nil {
		err = ps.await(done)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.close(); err != nil {
		t.Fatal(err)
	}

	period := time.Duration(float64(p.EpochSize) / float64(p.Rate) * 1e9)
	for i := 1; i < w.epochs; i++ {
		if got := time.Duration(ps.cutDue[i] - ps.cutDue[i-1]); got < period-time.Microsecond || got > period+time.Microsecond {
			t.Fatalf("epoch %d due %v after its predecessor, want %v: the stall moved the schedule", i, got, period)
		}
	}
	// The stall began about one period before epoch `stalled` was due, so
	// that epoch goes out stall-period late, the next one a period less.
	for k := 0; k < 3; k++ {
		i := stalled + k
		want := stall - time.Duration(k+1)*period - 5*time.Millisecond
		late := time.Duration(ps.sendStart[i] - ps.cutDue[i])
		fresh := time.Duration(ps.visibleAll(i) - ps.cutDue[i])
		if late < want || fresh < late {
			t.Errorf("epoch %d (stalled+%d): late %v, fresh %v; both must include at least %v of the stall", i, k, late, fresh, want)
		}
	}
	if len(ps.failures) > 0 {
		t.Errorf("failures: %v", ps.failures)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.50}, {19, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {626, 0.95}, {999, 0.95}, {1000, 0.99}, {2002, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if s := summarize(vs); s.N != 1000 || s.TailPct != 99 || math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-9 || s.Max != 1000 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the rule the acceptance driver measures spread with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	req := request{
		{ID: 7, Name: "fresh", Start: 0, End: 100},
		{ID: 7, Name: "a", Parent: "fresh", Start: 10, End: 30},
		{ID: 7, Name: "b", Parent: "fresh", Start: 20, End: 50},  // overlaps a: [20,30] counts once
		{ID: 7, Name: "c", Parent: "fresh", Start: 90, End: 120}, // clipped to the parent
		{ID: 7, Name: "a.inner", Parent: "a", Start: 12, End: 17},
	}
	got := selfTimes(req)
	want := map[string]int64{"fresh": 100 - 40 - 10, "a": 20 - 5, "b": 30, "c": 30, "a.inner": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// TestBudgetSumsToMedian: children that tile their root make the budget
// rows add up to the median latency.
func TestBudgetSumsToMedian(t *testing.T) {
	var reqs []request
	for i := 1; i <= 101; i++ {
		d := int64(i) * 1e6
		reqs = append(reqs, request{
			{ID: i, Name: "fresh", Start: 0, End: d},
			{ID: i, Name: "ship.wire", Parent: "fresh", Start: 0, End: d / 4},
			{ID: i, Name: "replay.hot_stage", Parent: "fresh", Start: d / 4, End: d},
		})
	}
	b := makeBudget(reqs)
	if b.Root != "fresh" || b.N != 21 || math.Abs(b.P50MS-51) > 1e-9 || math.Abs(b.OffFrac) > 1e-9 {
		t.Errorf("budget = %+v", b)
	}
	if math.Abs(b.SelfMS["ship.wire"]-51.0/4) > 1e-9 || b.SelfMS["fresh"] != 0 {
		t.Errorf("budget rows = %v", b.SelfMS)
	}
}

func TestVerdict(t *testing.T) {
	steadyA := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, false, "unchanged"},
		{"slower latency", []float64{120, 121, 119, 120, 120}, false, "REGRESSED"},
		{"faster latency", []float64{80, 81, 79, 80, 80}, false, "improved"},
		{"lower throughput", []float64{80, 81, 79, 80, 80}, true, "REGRESSED"},
		{"noisy", []float64{60, 140, 100, 90, 120}, false, "unresolved"},
	} {
		if _, got := verdict(steadyA, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestStreamFromSeed: the same seed gives the same inputs, another seed
// gives others, and the probe index agrees with the epoch headers.
func TestStreamFromSeed(t *testing.T) {
	p := Workloads["tpcc_steady"]
	a, err := generateStream(p, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateStream(p, 5, 4)
	c, _ := generateStream(p, 6, 4)
	same := func(x, y *stream) bool {
		for i := range x.encs {
			if !bytes.Equal(x.encs[i].Buf, y.encs[i].Buf) {
				return false
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Errorf("seed 5 twice equal=%v, seed 5 vs 6 equal=%v", same(a, b), same(a, c))
	}
	if a.txns() != 4*p.EpochSize || len(a.targets) != a.txns() || a.txnTS[a.txns()-1] != a.encs[3].LastCommitTS {
		t.Errorf("index: %d txns, %d targets, last ts %d vs %d", a.txns(), len(a.targets), a.txnTS[a.txns()-1], a.encs[3].LastCommitTS)
	}
}
