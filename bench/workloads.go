package main

import (
	"fmt"
	"sort"
	"time"

	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/workload"
)

// Properties is everything that distinguishes one benchmark workload
// from another. The driver reads nothing else, so adding a workload is
// adding an entry to Workloads.
type Properties struct {
	// Why is the one-sentence reason the workload exists (-list).
	Why string
	// Generator names an entry of generators; Warehouses is its scale.
	Generator  string
	Warehouses int
	// Rate is the open-loop commit rate in txns/s. 0 makes the workload
	// closed-loop: Txns transactions are pushed with at most Window
	// epochs not yet visible everywhere, pass after pass.
	Rate   int
	Txns   int
	Window int
	// EpochSize is the number of transactions per shipped epoch.
	EpochSize int
	// Replicas is the fleet size behind the one Fanout.
	Replicas int
	// Columnar equips the replicas with a colstore; CompactEvery then
	// paces the bench-driven Compact+Vacuum.
	Columnar     bool
	CompactEvery time.Duration
	// CheckpointEvery paces the bench-driven Supervisor.Checkpoint.
	CheckpointEvery time.Duration
	// WarmPrefix transactions are replayed during set-up, before t0.
	WarmPrefix int
	// ProbeRate is the open-loop point-probe rate per second; a closed
	// loop with a non-zero rate probes once per epoch it sends. ProbeMix
	// picks the admitted footprint: "hot-all" alternates the hot tables
	// and the whole catalogue, "queries" draws from Generator.Queries().
	ProbeRate int
	ProbeMix  string
	// Analyst runs one closed-loop reader issuing the Queries() mix;
	// its queries are then the workload's probes.
	Analyst bool
}

// Workloads is the registry: name → properties.
var Workloads = map[string]Properties{
	"tpcc_steady": {
		Why: "Freshness headline: ~19 entries and ~920 B per txn, 91 % hot, so dispatch, replay, " +
			"memtable and flate carry the work per byte and checkpoints put a periodic spike in the tail.",
		Generator: "tpcc", Warehouses: 8, Rate: 8000, EpochSize: 128, Replicas: 1,
		CheckpointEvery: 5 * time.Second, ProbeRate: 200, ProbeMix: "hot-all",
	},
	"bustracker_steady": {
		Why: "Same layers, other regime: 3 entries and ~200 B per txn over 65 tables, so per-epoch fixed " +
			"costs (framing, acks, one arena per group, publish, wake-ups) dominate per-byte ones.",
		Generator: "bustracker", Rate: 6000, EpochSize: 256, Replicas: 1,
		ProbeRate: 200, ProbeMix: "queries",
	},
	"tpcc_catchup_fanout3": {
		Why: "Capacity and cost: a TPC-C backlog pushed closed-loop through one Fanout to 3 supervised " +
			"replicas in 2048-txn epochs; the only workload where fan-out and per-peer compression do real work.",
		Generator: "tpcc", Warehouses: 8, Txns: 50000, Window: 8, EpochSize: 2048, Replicas: 3,
		ProbeRate: 200, ProbeMix: "hot-all",
	},
	"ch_analytics": {
		Why: "Reads beside writes: a closed-loop analyst runs the CH query mix on a columnar replica " +
			"that is compacted while it ingests, so query, colstore and memtable scans carry the work.",
		Generator: "chbench", Warehouses: 8, Rate: 2000, EpochSize: 128, Replicas: 1,
		Columnar: true, CompactEvery: 2 * time.Second, WarmPrefix: 50000, Analyst: true,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(Workloads))
	for n := range Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// generators builds a workload generator and the grouping plan replayd
// would pair it with (cmd/replayd workloadPlan).
var generators = map[string]func(sf int) (workload.Generator, *grouping.Plan){
	"tpcc": func(sf int) (workload.Generator, *grouping.Plan) {
		gen := workload.NewTPCC(sf)
		return gen, grouping.Build(htap.TPCCRates(1000), workload.TableIDs(gen.Tables()),
			grouping.Options{Eps: 0.05, MinPts: 2})
	},
	"chbench": func(sf int) (workload.Generator, *grouping.Plan) {
		gen := workload.NewCHBench(sf)
		return gen, grouping.Build(htap.CHRates(gen), workload.TableIDs(gen.Tables()),
			grouping.Options{PerTable: true})
	},
	"bustracker": func(int) (workload.Generator, *grouping.Plan) {
		gen := workload.NewBusTracker()
		return gen, grouping.Build(gen.Rates(0), workload.TableIDs(gen.Tables()),
			grouping.Options{Eps: 0.3, MinPts: 2})
	},
}

// runConfig is what the command line adds to a workload's properties.
type runConfig struct {
	Seed    int64
	Seconds float64 // measured window
	Warmup  float64 // discarded lead-in, seconds
	Scale   float64 // multiplies Txns and WarmPrefix (tests shrink runs)
	OutDir  string  // spools, checkpoints and traces go under here
}

// Init validates p and sizes its stream for cfg.
func (w *workloadRun) Init(name string, p Properties, cfg runConfig) error {
	if _, ok := generators[p.Generator]; !ok {
		return fmt.Errorf("workload %s: unknown generator %q", name, p.Generator)
	}
	if p.EpochSize <= 0 || p.Replicas <= 0 {
		return fmt.Errorf("workload %s: epoch size and replicas must be positive", name)
	}
	if p.Rate == 0 && (p.Txns <= 0 || p.Window <= 0) {
		return fmt.Errorf("workload %s: a closed loop needs Txns and Window", name)
	}
	if cfg.Seconds <= 0 || cfg.Scale <= 0 {
		return fmt.Errorf("workload %s: seconds and scale must be positive", name)
	}
	w.name, w.p, w.cfg = name, p, cfg
	w.prefixEpochs = int(float64(p.WarmPrefix)*cfg.Scale) / p.EpochSize
	txns := int(float64(p.Txns) * cfg.Scale)
	if p.Rate > 0 {
		txns = int(float64(p.Rate) * (cfg.Warmup + cfg.Seconds))
	}
	// Whole epochs only: an epoch is cut when its last txn is due.
	w.epochs = w.prefixEpochs + max(2, (txns+p.EpochSize-1)/p.EpochSize)
	return nil
}
