GO ?= go

.PHONY: all build vet gofmt deadcode test race fuzz chaos chaos-cluster smoke bench-smoke ci bench-json bench-diff bench-e2e

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail on any file gofmt would rewrite.
gofmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Fail on any function under internal/ that no product binary links,
# unless tools/deadcode/allow.txt names it with the test that needs it
# (and on an allowlist entry that is linked or gone).
deadcode:
	$(GO) run ./tools/deadcode

test:
	$(GO) test ./...

# Race-check the concurrency-heavy packages: the replication transport,
# the replay engine, the ATR/C5 baseline replayers (the only concurrent
# replayers outside it), the epoch batcher, the sharded memtable index
# (including TestScanStress — full-range ordered Scans racing
# GetOrCreate and Vacuum), the query
# planner against feed + compaction, the columnar compactor, the
# checkpoint writer, the HTAP node wiring, the cluster router/fan-out
# and the recovery supervisor/spool (their chaos e2es run separately,
# already under -race, in chaos-cluster and chaos).
race:
	$(GO) test -race ./internal/ship/... ./internal/replay/... ./internal/baselines/... ./internal/epoch/... ./internal/memtable/... \
		./internal/query/... ./internal/colstore/... ./internal/checkpoint/... ./internal/htap/...
	$(GO) test -race -skip 'TestClusterChaos' ./internal/cluster/
	$(GO) test -race -skip 'TestChaos' ./internal/recovery/...

# Short fuzz smoke: the wire-format decoder (typed errors only, and a
# compressed epoch decodes only to bytes matching its bufCRC — the one
# checksum an epoch's log entries have), the in-tree DEFLATE decoder
# (differential against compress/flate: same accept/reject, same bytes,
# no allocation ahead of the output a length claim is backed by), the
# in-tree DEFLATE encoder (its body is the size it planned, both
# decoders reproduce the input, and only a body not smaller than the
# input falls back to raw), the memtable scan variants (Scan/ScanAny vs
# a flat-map reference), the read planner
# differential (the columnar and both empty-base executors vs a
# planner-free oracle across random freeze schedules), the checkpoint
# reader (corrupt or truncated files must fail cleanly), the spool
# segment scan (arbitrary bytes as a segment must recover to a spool
# that still appends and replays), the log-entry decoders (the
# copying Decode, replay's aliasing DecodeInto and dispatch's header scan
# must agree on arbitrary bytes, and the scan's column count must never
# exceed what the bytes could hold), and an epoch's framing (wal's
# DecodeStream and the dispatcher must agree on accept/reject, and every
# dispatched piece must carry the txn ID and commit timestamp of the
# COMMIT its frames belong to by position).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=10s ./internal/ship/
	$(GO) test -run='^$$' -fuzz=FuzzInflate -fuzztime=10s ./internal/ship/
	$(GO) test -run='^$$' -fuzz=FuzzDeflate -fuzztime=10s ./internal/ship/
	$(GO) test -run='^$$' -fuzz=FuzzScanVariants -fuzztime=10s ./internal/memtable/
	$(GO) test -run='^$$' -fuzz=FuzzColumnarScan -fuzztime=10s ./internal/query/
	$(GO) test -run='^$$' -fuzz=FuzzRead -fuzztime=10s ./internal/checkpoint/
	$(GO) test -run='^$$' -fuzz=FuzzScanSegment -fuzztime=10s ./internal/recovery/
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=10s ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeStream -fuzztime=10s ./internal/dispatch/

# Chaos e2e in short mode under the race detector: repeated hard
# restarts at random points under transport faults plus an injected
# spool bit-flip must converge to reference-equal state, and a poison
# epoch must be quarantined instead of crash-looping the replica.
# The second leg reruns the restart chaos with negotiated flate
# compression on every link, so compressed frames cross the faulty wire
# and land in the spool as received.
chaos:
	$(GO) test -race -short -run 'TestChaos' -count=1 ./internal/recovery/
	AETS_CHAOS_COMPRESS=1 $(GO) test -race -short -run 'TestChaosRestartsConvergeToReference' -count=1 ./internal/recovery/

# Cluster chaos e2e in short mode under the race detector: a 3-replica
# fan-out where replicas hard-crash mid-stream and recover through the
# supervisor while routed queries stay reference-equal and satisfied
# queries admit without blocking. The second leg runs a mixed-capability
# fleet — one replica without CapFlate, the rest negotiating flate — to
# prove one such peer cannot disable compression for its siblings.
# The third leg drives snapshot catch-up and anti-entropy: a bounded
# divergence buffer sheds under a crashed replica (counted, not
# terminal), the replica rejoins through a wire snapshot with zero
# operator action, and an injected at-rest bit flip is caught by an
# epoch-boundary digest and repaired through the same snapshot path.
chaos-cluster:
	$(GO) test -race -short -run 'TestClusterChaos' -count=1 ./internal/cluster/
	AETS_CHAOS_COMPRESS=1 $(GO) test -race -short -run 'TestClusterChaos' -count=1 ./internal/cluster/
	AETS_CHAOS_SNAPSHOT=1 $(GO) test -race -short -run 'TestClusterChaos' -count=1 ./internal/cluster/

# Boot `replayd backup -http` with no directories, scrape /metrics and
# /healthz, fail on non-200 responses or missing replay_* series, then
# stop it and fail if its scratch directory outlives it.
smoke:
	sh scripts/smoke-obsrv.sh

# Every benchmark must at least run: one iteration each, so a bench that
# rots (panics, fails its own sanity checks) breaks CI instead of the
# next person's perf investigation.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The memtable benchmark set archived in BENCH_memtable.json and diffed
# by bench-diff: the index scaling curve plus every scan variant.
MEMTABLE_BENCH = BenchmarkGetOrCreateParallel|BenchmarkScanMerged|BenchmarkScanAny

# The ship benchmark set archived in BENCH_ship.json: the flate frame
# build per workload (with its wire/raw ratio metric), the raw frame
# build it is diffed against, one shared frame written by 1 and 3
# fan-out peers (per-epoch cost flat in the peer count), and the
# receive-side inflate of compressed frames per workload.
SHIP_BENCH = BenchmarkShipCompress|BenchmarkShipEncodeRaw|BenchmarkShipFanoutWrite|BenchmarkShipInflate

# The query benchmark set archived in BENCH_query.json: scans and
# aggregates through the one planner over a majority-frozen table
# (Columnar*) and over the same rows never compacted (Row*) — the two
# sides of its only selection.
QUERY_BENCH = BenchmarkColumnarScan|BenchmarkColumnarAggregate|BenchmarkRowScan|BenchmarkRowAggregate

# Replay throughput across pipeline depths 1, 2 and 4, plus the memtable,
# ship and query benchmark sets, archived as JSON for diffing.
bench-json:
	$(GO) test -run='^$$' -bench=BenchmarkReplayPipeline -benchmem ./internal/replay/ \
		| $(GO) run ./tools/benchjson > BENCH_replay.json
	$(GO) test -run='^$$' -bench='$(MEMTABLE_BENCH)' -benchmem ./internal/memtable/ \
		| $(GO) run ./tools/benchjson > BENCH_memtable.json
	$(GO) test -run='^$$' -bench='$(SHIP_BENCH)' -benchmem ./internal/ship/ \
		| $(GO) run ./tools/benchjson > BENCH_ship.json
	$(GO) test -run='^$$' -bench='$(QUERY_BENCH)' -benchmem ./internal/query/ \
		| $(GO) run ./tools/benchjson > BENCH_query.json

# Re-run the archived benchmarks and print per-benchmark deltas against
# the checked-in BENCH_*.json — old → new ns/op, B/op and allocs/op with
# relative change. Informational: regressions are flagged inline, not
# failed, because shared CI hosts are too noisy for a hard perf gate.
bench-diff:
	$(GO) test -run='^$$' -bench=BenchmarkReplayPipeline -benchmem ./internal/replay/ \
		| $(GO) run ./tools/benchjson -diff BENCH_replay.json
	$(GO) test -run='^$$' -bench='$(MEMTABLE_BENCH)' -benchmem ./internal/memtable/ \
		| $(GO) run ./tools/benchjson -diff BENCH_memtable.json
	$(GO) test -run='^$$' -bench='$(SHIP_BENCH)' -benchmem ./internal/ship/ \
		| $(GO) run ./tools/benchjson -diff BENCH_ship.json
	$(GO) test -run='^$$' -bench='$(QUERY_BENCH)' -benchmem ./internal/query/ \
		| $(GO) run ./tools/benchjson -diff BENCH_query.json

# The end-to-end freshness benchmark declared in BENCHMARK.json: every
# workload once, untraced. bench/README.md documents -workload, -seed,
# -seconds, -trace 1 (per-layer budget) and -repeat/-compare for paired
# before/after runs.
bench-e2e:
	$(GO) run ./bench

ci: build vet gofmt deadcode test race chaos chaos-cluster bench-smoke smoke
