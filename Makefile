GO ?= go

BENCHES = storage serve snapshot incr wal plan load

.PHONY: build vet test test-race test-chaos fuzz-smoke cover test-bench loc loc-delta check bench bench-pairs $(addprefix bench-,$(BENCHES))

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

# test-race is part of tier-1 verification: the full suite under the race
# detector, plus one short iteration of the parallel-evaluation benchmarks
# (E1 graph statistics and E11 path-pattern reasoning) so the sharded
# fixpoint and the concurrent statistics tasks run under -race at benchmark
# scale too. The cancellation / trace-determinism tests rerun with -count=3:
# they interrupt the worker pool mid-fan-out and compare run traces across
# worker counts, the shapes most likely to surface a scheduling-dependent
# race; the sealed-relation test reruns with -count=10 because it races 16
# queries to build the same lazily built indexes.
test-race: build
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestCancel|TestTimeout|TestCallerDeadline|TestGoldenTrace|TestTraceSequentialFallbacks' ./internal/vadalog/
	$(GO) test -race -count=10 -run 'TestSealedConcurrentQueries' ./internal/vadalog/
	$(GO) test -race -count=3 -run 'TestFrozenConcurrentReaders|TestFrozenQueryConcurrent|TestConcurrentFrozenReaders' ./internal/pg/ ./internal/metalog/ ./internal/symtab/
	$(GO) test -race -count=2 -run 'TestServeSoak|TestConcurrentQueriesShareSnapshot' ./internal/server/
	$(GO) test -race -count=2 -run 'TestConcurrentBulkIngest' ./internal/pg/
	$(GO) test -race -run '^$$' -bench 'BenchmarkE11DescFrom|BenchmarkE1GraphStats' -benchtime 1x .

# test-chaos sweeps every registered fault-injection site across error and
# panic modes (see internal/instance/chaos_test.go and
# internal/vadalog/fault_test.go), asserting the atomicity invariant,
# panic containment, and goroutine hygiene. -count=2 reruns the sweep so a
# site left armed or a counter left dirty by the first pass fails the second.
test-chaos: build
	$(GO) test -count=2 -run 'TestChaos|TestStratum|TestShard|TestBestEffort|TestRetry|TestWriteSites|TestMaterializeFlushErrorRollsBack' ./internal/instance/ ./internal/vadalog/ ./internal/pg/ ./internal/fault/ ./internal/server/
	$(GO) test -count=2 -run 'TestWriteFileFaultsLeaveNoPartialFile|TestOpenMmapFaultFallsBack' ./internal/snapfile/
	$(GO) test -count=2 -run 'TestReloadCorruptSnapshotKeepsServing|TestSnapshotMmapFaultStillServes' ./internal/server/
	$(GO) test -count=2 -run 'TestFault|TestChaos' ./internal/wal/

# fuzz-smoke gives each fuzz target (Target:package) a short budget — enough
# to shake out regressions in the corpus without turning CI into a fuzzing
# farm.
FUZZ_TARGETS = FuzzParse:metalog FuzzParse:gsl FuzzParse:vadalog \
	FuzzDecodeQuery:server FuzzDecodeMutation:server FuzzOpenSnapshot:snapfile \
	FuzzReplayWAL:wal FuzzPlanPattern:metalog FuzzExplain:server FuzzBulkLoadBatch:pg

fuzz-smoke: build
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} ./internal/$${t##*:}/"; \
		$(GO) test -fuzz "^$${t%%:*}\$$" -fuzztime 10s -run '^$$' ./internal/$${t##*:}/ || exit 1; \
	done

# cover enforces the per-package coverage floors on the newest subsystems —
# each carries the same gate (70% of statements) so their suites cannot
# silently rot. Profiles are written to temp files and removed; only the
# threshold checks are CI-visible.
COVER_PKGS = server snapfile overlay wal plan pg

cover: build
	@for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=cover_$$pkg.out ./internal/$$pkg/ || exit 1; \
		total=$$($(GO) tool cover -func=cover_$$pkg.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
		rm -f cover_$$pkg.out; \
		echo "internal/$$pkg coverage: $$total% (floor 70%)"; \
		awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70.0) ? 0 : 1 }' || \
		{ echo "FAIL: internal/$$pkg coverage $$total% is below the 70% floor"; exit 1; }; \
	done

# test-bench vets and tests the benchmark module (bench/ is a Go module of
# its own, so `go test ./...` at the root never compiles it): an API change
# that breaks the benchmark fails here, not in the benchmark driver.
test-bench: build
	cd bench && $(GO) vet ./... && $(GO) test ./...

LOC_FILTER = grep '\.go$$' | grep -v '_test\.go$$' | grep -v '^bench/'

# loc prints the non-test line count outside bench/ — the number CHANGES.md
# records a simplification PR's net delta against.
loc:
	@git ls-files | $(LOC_FILTER) | xargs cat | wc -l

# loc-delta BASE=<rev> prints that count at BASE (read from the object store,
# no checkout), in the checked-out tree (what `make loc` prints: HEAD on a
# clean checkout, HEAD plus the staged PR before it is committed) and the
# difference — the number a simplification PR's CHANGES.md line records.
loc-delta:
	@test -n "$(BASE)" || { echo "usage: make loc-delta BASE=<rev>" >&2; exit 2; }
	@base=$$(git ls-tree -r --name-only $(BASE) | $(LOC_FILTER) | sed 's|^|$(BASE):|' | xargs git show | wc -l) && \
	head=$$($(MAKE) -s loc) && \
	echo "$$base at $(BASE), $$head here, delta $$((head - base))"

# bench-pairs BASE=<rev> W=<workload> [N=10] measures a performance claim the
# way the benchmark driver does: BASE is checked out into a git worktree
# under .bench_build/, both trees run the driver's command for one workload
# once per pair with the pair number as the seed, alternating which tree goes
# first, and cmd/benchpairs prints each side's median and quartiles per
# end-to-end metric, the pair win count and the verdict. It reads bench/ and
# writes only under .bench_build/ (ignored); ~1.5 min per pair.
N ?= 10
PAIRS_DIR = .bench_build/pairs

bench-pairs:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make bench-pairs BASE=<rev> W=<workload> [N=10]" >&2; exit 2; }
	@git worktree remove --force $(PAIRS_DIR)/base 2>/dev/null; rm -rf $(PAIRS_DIR); mkdir -p $(PAIRS_DIR)
	git worktree add --detach $(PAIRS_DIR)/base $(BASE)
	@trap 'git worktree remove --force $(PAIRS_DIR)/base' EXIT; \
	run() { \
		line=$$(cd $$2 && bash bench/run.sh --workload $(W) --seed $$3 --seconds 20 --trace 0 | tail -n 1) || exit 1; \
		echo "$$1 $$3 $$line" | tee -a $(PAIRS_DIR)/runs.txt; \
	}; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then run base $(PAIRS_DIR)/base $$i && run head . $$i; \
		else run head . $$i && run base $(PAIRS_DIR)/base $$i; fi || exit 1; \
	done; \
	$(GO) run ./cmd/benchpairs < $(PAIRS_DIR)/runs.txt

# check is the tier-1 gate: vet + full suite, the race-detector pass, the
# chaos sweep, the fuzz smoke test, the coverage floor, and the benchmark
# module.
check: test test-race test-chaos fuzz-smoke cover test-bench

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-<name> captures one family of microbenchmarks into BENCH_<name>.json
# via cmd/benchjson. Each committed file is the baseline its experiment is
# judged against; regenerate on comparable hardware before comparing numbers.
# Fixed iteration counts keep the wall-clock bounded. What each one holds,
# with its EXPERIMENTS.md entry:
#
#   storage   E19: frozen vs mutable label scans and adjacency walks in
#             internal/pg; hashed vs string-keyed Relation insert/probe paths.
#   serve     E20: /query throughput over a real listener at 1/2/8 clients,
#             the latency-bound variant whose C8/C1 ratio is the concurrency
#             acceptance criterion, and the cache fast path.
#   snapshot  E21: parse+freeze of the E19 reference JSON versus
#             snapfile.Open of the same graph (validation-only, and with the
#             lazy facade forced), plus the encode path; target: open at
#             least 50x faster than parse-freeze.
#   incr      E22: one 0.1% edge-churn batch through Maintainer.Apply versus
#             the full fixpoint rebuild it replaces; the <1% criterion is
#             enforced on every `go test ./...` by TestIncrChurnRatio.
#   wal       E23: /mutate latency (mean plus p50/p99) with the write-ahead
#             log disabled and under each fsync policy; gate: "interval"
#             costs less than 10% over no WAL at all.
#   plan      E24: one company's ownership-closure point query over the E1
#             shareholding graph, written-order versus the cost-based plan;
#             gate: planned at least 5x faster.
#   load      E25: stream-vs-materialize load legs at 1M/10M/100M edges, each
#             in a fresh child process so peak RSS (VmHWM) is per-leg, plus
#             the delayed-backend worker floor pair (-strip-procs keeps gate
#             lookups name-stable); gates, read from the JSON: W=8 ingest at
#             least 3x W=1 edges/sec against the backend floor, stream peak
#             RSS at most 25% of the materializing generator's at 10M edges.
#             The 100M leg needs ~20 GB and a few minutes.
bench-storage:  B_RUN = -bench 'BenchmarkStorage' -benchmem ./internal/pg/ ./internal/vadalog/
bench-serve:    B_RUN = -bench 'BenchmarkServe' -benchtime 200x -benchmem ./internal/server/
bench-snapshot: B_RUN = -bench 'BenchmarkSnapshot' -benchtime 2s -benchmem ./internal/snapfile/
bench-incr:     B_RUN = -bench 'BenchmarkIncr' -benchmem ./internal/vadalog/
bench-wal:      B_RUN = -bench 'BenchmarkWALMutate' -benchtime 300x -benchmem ./internal/server/
bench-wal:      B_GATE = RUN_WAL_GATE=1 $(GO) test -run '^TestWALIntervalOverheadGate$$' -count=1 ./internal/server/
bench-plan:     B_RUN = -bench 'BenchmarkPlanPointQuery' -benchtime 30x -benchmem ./internal/metalog/
bench-plan:     B_GATE = RUN_PLAN_GATE=1 $(GO) test -run '^TestPlanPointQueryGate$$' -count=1 ./internal/metalog/
bench-load:     B_ENV = LOADBENCH_FULL=1
bench-load:     B_RUN = -bench 'BenchmarkLoad' -benchtime 1x -timeout 60m ./internal/fingraph/
bench-load:     B_JSON = -strip-procs
bench-load:     B_GATE = RUN_LOAD_GATE=1 $(GO) test -run '^TestBenchLoadGates$$' -count=1 ./internal/fingraph/

$(addprefix bench-,$(BENCHES)): bench-%: build
	$(B_ENV) $(GO) test -run '^$$' $(B_RUN) | tee BENCH_$*.txt
	$(GO) run ./cmd/benchjson $(B_JSON) < BENCH_$*.txt > BENCH_$*.json
	rm -f BENCH_$*.txt
	$(B_GATE)
