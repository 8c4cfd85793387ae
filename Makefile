GO ?= go

.PHONY: build vet test test-race test-chaos fuzz-smoke cover test-bench loc loc-delta check bench bench-pairs

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite (build outputs under
# .bench_build/ aside), so `make check` carries the formatting gate.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	test -z "$$out" || { echo "gofmt -l prints:"; echo "$$out"; exit 1; }

test: build vet
	$(GO) test ./...

# test-race is part of tier-1 verification: the full suite under the race
# detector, plus one short iteration of the parallel-evaluation benchmarks
# (E1 graph statistics and E11 path-pattern reasoning) so the sharded
# fixpoint and the concurrent statistics tasks run under -race at benchmark
# scale too. The cancellation / trace-determinism tests rerun with -count=3:
# they interrupt the worker pool mid-fan-out and compare run traces across
# worker counts, the shapes most likely to surface a scheduling-dependent
# race; so do the production-size merge and the MaxFacts valve, whose shard
# buffers the engine reuses across evaluations, and the insertion-order
# golden, whose relation pages and shard buffers are reused across rounds
# and batches; the sealed-relation tests rerun with -count=10 because each races 16
# queries to build the same lazily built indexes — over a column store in
# vadalog, over row ids into frozen columns in metalog — the mutable-index
# test because it races 16 goroutines of probes over one mutable relation's
# warmed key tables, as sharded rounds do, and the frozen-readers test
# because it races the one label-count build behind NodeLabelCount and
# EdgeLabelCount and the per-call Node/Edge struct builds against each other
# and against the column reads (CSR windows, out-degrees, row scans); the
# overlay-generations test reruns with them because an overlay, its Clone and
# the facts extracted from either share rows by pointer, and it races readers
# of one generation against the Clone().Apply and fact maintenance that
# build the next; and the fact-siblings test with it because two generations
# spliced from one parent share its list-row storage (a rejected /mutate
# leaves such a sibling), and it builds both at once from two goroutines.
test-race: build
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestCancel|TestTimeout|TestCallerDeadline|TestGoldenTrace|TestTraceSequentialFallbacks|TestShardedMergeAtProductionShardSizes|TestParallelMaxFactsValve|TestInsertionOrderGolden' ./internal/vadalog/
	$(GO) test -race -count=10 -run 'TestSealedConcurrentQueries|TestMutableIndexConcurrentProbes|TestFrozenReadersRaceLabelSummary' ./internal/vadalog/ ./internal/pg/ ./internal/metalog/
	$(GO) test -race -count=3 -run 'TestFrozenConcurrentReaders|TestFrozenQueryConcurrent|TestConcurrentFrozenReaders|TestOverlayGenerationsShareRows|TestApplyFactsDeltaSiblings' ./internal/pg/ ./internal/metalog/ ./internal/symtab/
	$(GO) test -race -count=2 -run 'TestServeSoak|TestConcurrentQueriesShareSnapshot' ./internal/server/
	$(GO) test -race -count=2 -run 'TestConcurrentBulkIngest' ./internal/pg/
	$(GO) test -race -run '^$$' -bench 'BenchmarkE11DescFrom|BenchmarkE1GraphStats' -benchtime 1x .

# test-chaos sweeps every registered fault-injection site across error and
# panic modes (see internal/instance/chaos_test.go and
# internal/vadalog/fault_test.go), asserting the atomicity invariant,
# panic containment, and goroutine hygiene. -count=2 reruns the sweep so a
# site left armed or a counter left dirty by the first pass fails the second.
test-chaos: build
	$(GO) test -count=2 -run 'TestChaos|TestStratum|TestShard|TestBestEffort|TestRetry|TestWriteSites|TestMaterializeFlushErrorRollsBack|TestMaterializeStaged|TestMaintainerFault' ./internal/instance/ ./internal/vadalog/ ./internal/pg/ ./internal/fault/ ./internal/server/
	$(GO) test -count=2 -run 'TestWriteFileFaultsLeaveNoPartialFile|TestOpenMmapFaultFallsBack' ./internal/snapfile/
	$(GO) test -count=2 -run 'TestReloadCorruptSnapshotKeepsServing|TestSnapshotMmapFaultStillServes' ./internal/server/
	$(GO) test -count=2 -run 'TestFault|TestChaos' ./internal/wal/

# fuzz-smoke gives each fuzz target (Target:package) a short budget — enough
# to shake out regressions in the corpus without turning CI into a fuzzing
# farm.
FUZZ_TARGETS = FuzzParse:metalog FuzzParse:gsl FuzzParse:vadalog \
	FuzzDecodeQuery:server FuzzDecodeMutation:server FuzzOpenSnapshot:snapfile \
	FuzzReplayWAL:wal FuzzPlanPattern:metalog FuzzExplain:server FuzzBulkLoadBatch:pg FuzzFreeze:pg \
	FuzzRelationIndex:vadalog FuzzStratifiedAggregate:vadalog FuzzOverlayApply:overlay FuzzCell:vadalog \
	FuzzComputeStats:plan

fuzz-smoke: build
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} ./internal/$${t##*:}/"; \
		$(GO) test -fuzz "^$${t%%:*}\$$" -fuzztime 10s -run '^$$' ./internal/$${t##*:}/ || exit 1; \
	done

# cover enforces the per-package coverage floors on the newest subsystems,
# the MetaLog layer, and the reasoning engine and its value domain — each carries the same gate (70% of statements) so
# their suites cannot silently rot. Profiles are written to temp files and removed; only the
# threshold checks are CI-visible.
COVER_PKGS = server snapfile overlay wal plan pg instance metalog vadalog models value supermodel finance fingraph

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

# check is the tier-1 gate: vet + full suite (the paper walk-throughs run in
# it as pinned Example functions), the race-detector pass, the chaos sweep,
# the fuzz smoke test, the coverage floor and the benchmark module.
check: test test-race test-chaos fuzz-smoke cover test-bench

# bench runs the benchmark spine — every workload in BENCHMARK.json, one
# result line each, stamped with the hardware and commit that produced it
# (bench/README.md). It is the one place a recorded timing comes from; the
# few `go test -bench` microbenchmarks left in the tree are development aids
# whose output is never committed.
bench:
	bash bench/run.sh
