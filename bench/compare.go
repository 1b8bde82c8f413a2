package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// runSet is what -repeat writes and -compare reads: the end-to-end
// reports of N runs per workload of one commit.
type runSet struct {
	Env  environment `json:"env"`
	Runs []*report   `json:"runs"`
}

// repeatRuns runs every named workload n times with seeds seed, seed+1,
// …. Each round starts one workload further along (the first seed picks
// where) and odd rounds go backwards, so that no workload always runs
// first or always follows the same neighbour, and two sets started from
// different seeds run in different orders.
func repeatRuns(names []string, cfg runConfig, n int, path string) error {
	set := runSet{Env: currentEnvironment()}
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		for j := range names {
			at := int(c.Seed) + j
			if i%2 == 1 {
				at = int(c.Seed) - j
			}
			name := names[((at%len(names))+len(names))%len(names)]
			rep, err := runOne(name, c, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d done (%d/%d)\n", name, c.Seed, i+1, n)
			set.Runs = append(set.Runs, rep)
		}
	}
	buf, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// bounds is the part of BENCHMARK.json -compare applies.
type bounds struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values gathers metric → values per workload, skipping invalid runs.
func (s *runSet) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range s.Runs {
		if r.Invalid != "" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// verdict judges B against A for one metric. worse is how far B's median
// moved in the bad direction as a share of A's median. A metric whose
// run-to-run spread on either side exceeds its bound cannot show that
// movement either way: it is unresolved, not unchanged.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
	}
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case max(spread(a), spread(b)) > bound:
		v = "unresolved"
	case worse > bound:
		v = "REGRESSED"
	case worse < -bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return worse, v
}

// compareFiles prints, per workload × end-to-end metric, both sides'
// median and quartiles and the verdict under the bounds in benchFile. It
// reports whether any metric regressed or stayed unresolved.
func compareFiles(w io.Writer, pathA, pathB, benchFile string) (bad bool, err error) {
	var a, b runSet
	var bs bounds
	for path, v := range map[string]any{pathA: &a, pathB: &b, benchFile: &bs} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	va, vb := a.values(), b.values()
	workloads := make([]string, 0, len(va))
	for name := range va {
		if vb[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1 q3] n\tB median [q1 q3] n\tworse by\tbound\tverdict")
	for _, name := range workloads {
		for _, m := range bs.EndToEnd {
			xa, xb := va[name][m.Name], vb[name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse, v := verdict(xa, xb, m.Better == "higher", m.Bound)
			bad = bad || v == "REGRESSED" || v == "unresolved"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", name, m.Name, quartileCell(xa), quartileCell(xb), 100*worse, 100*m.Bound, v)
		}
	}
	return bad, tw.Flush()
}

func quartileCell(vs []float64) string {
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", q2, q1, q3, len(vs))
}
