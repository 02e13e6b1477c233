GO ?= go

.PHONY: all build test vet fmt check bench bench-check tables-check allocs push-check deadcode

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: build vet fmt push-check deadcode test bench-check tables-check allocs

# bench-check vets and tests the repository benchmark, a module of its own
# under bench/ that ./... at the root does not reach; mirrored by the CI
# build-and-test job.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# tables-check regenerates the experiment tables that are deterministic —
# optimizer costs, radio message counts, battery levels, result counts, no
# clocks — and diffs them against the committed copy, so "the kept tables
# stay byte-identical" (ROADMAP standing conventions) is checked, not
# remembered; mirrored by the CI build-and-test job. E5 and E6 stay out:
# they time loops on the wall clock, and their latency claim is that clock.
# A PR that means to move a table says why and rewrites the golden file with
# the same command.
TABLES        := E1 E2 E3 E4 E8 E9 E10
TABLES_GOLDEN := cmd/benchharness/testdata/tables.golden
tables-check:
	$(GO) run ./cmd/benchharness $(TABLES) | diff -u $(TABLES_GOLDEN) -

# allocs runs the tests that pin the hot path's exact allocation counts,
# three times and without the race detector: under it sync.Pool drops items
# at random, so those tests check their counts only here and in plain
# `go test`. Like race_run it first checks with `go test -list` that each
# test still exists. Mirrored by the CI build-and-test job.
ALLOC_TESTS := TestJoinAggAllocs:./internal/stream/ TestRemoteJoinAggAllocs:./internal/plan/ TestQueryDensityFeedAllocs:./internal/plan/ TestSnapshotAllocsConstant:./internal/stream/ TestLocateVisitorAllocs:./internal/smartcis/ TestIdleFlushAllocs:./internal/stream/ TestIdleSnapshotAllocs:./internal/plan/
allocs:
	@for tp in $(ALLOC_TESTS); do \
		test=$${tp%%:*}; pkg=$${tp#*:}; \
		$(GO) test -list "^$$test\$$" $$pkg | grep -q "^$$test\$$" || \
			{ echo "make $@: test $$test not found in $$pkg"; exit 1; }; \
		$(GO) test -count=3 -run "^$$test\$$" $$pkg || exit 1; \
	done

# push-check keeps the engine on one push path: every operator's work lives
# in its PushBatch, and a producer that emits one row at a time hands it on
# through a stream.Slot it owns. It fails when non-test Go under internal/ or
# cmd/ calls .Push( on anything but container/heap, so a tuple-at-a-time
# producer cannot creep back in. Mirrored by the CI build-and-test job.
push-check:
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' '\.Push(' internal cmd | grep -v 'heap\.Push(')"; \
	if [ -n "$$out" ]; then echo "make $@: Push calls outside tests (use PushBatch, or a stream.Slot for one row):"; echo "$$out"; exit 1; fi

# deadcode type-checks every package of both modules (the root and bench/)
# and fails on a declaration that no program reaches — no main or init of a
# main package, no package-level variable initializer, no exported name of
# the root package — unless cmd/deadcode/allow.txt lists it with a reason,
# and on an allowlist line that is stale or gives no reason, so the list
# only shrinks. Mirrored by the CI build-and-test job.
deadcode:
	$(GO) run ./cmd/deadcode

# bench runs the microbenchmarks with allocation stats where they live —
# the paper experiments' at the root, the join+aggregate shard sweep
# (BenchmarkJoinAgg) in internal/stream, the remote sweep
# (BenchmarkRemoteJoinAgg) and query density (BenchmarkQueryDensity) in
# internal/plan — then regenerates the experiment tables and writes them to
# $(BENCH_OUT), an untracked file. Snapshot size and save/restore latency are
# the repository benchmark's: query-churn reports
# plan.snapshot.{bytes,save_ms,restore_ms} every run.
BENCH_OUT ?= bench-tables.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/stream/ ./internal/plan/
	$(GO) run ./cmd/benchharness -json $(BENCH_OUT)

# bench-smoke compiles and runs every benchmark in every package exactly
# once, so benchmarks cannot rot uncompiled between PRs; mirrored by the
# CI bench-smoke step.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# race exercises the concurrent paths (shard workers, engine fan-out,
# sensor fragment runners, the randomized serial-vs-sharded differential
# harness, the grouped-filter-vs-per-layer-filter differential and its
# attach/detach churn beside a live pusher, the shared-result differential
# and result views frozen beside a live pusher, the mutex-guarded route
# memo and ordered indexes of the building path, and the routing graph's
# searches beside its mutations) under the race detector; mirrored by the
# CI job.
.PHONY: race
race:
	$(GO) test -race ./internal/stream/... ./internal/sensor/... ./internal/plan/... ./internal/core/... \
		./internal/sensornet/... ./internal/machines/... ./internal/smartcis/... ./internal/wrappers/... \
		./internal/routing/...

# race_run runs `go test -race -run PATTERN PKGS FLAGS -v`, after checking
# with `go test -list` that every |-separated alternative of PATTERN still
# names at least one test in PKGS: -run passes silently when a renamed or
# deleted test matches nothing, and dist/chaos/elastic select by name.
# Usage: $(call race_run,PATTERN,PKGS,FLAGS)
define race_run
	@for alt in $$(echo '$(1)' | tr '|' ' '); do \
		$(GO) test -list "$$alt" $(2) | grep -q '^\(Test\|Fuzz\)' || \
			{ echo "make $@: -run alternative '$$alt' matches no test in $(2)"; exit 1; }; \
	done
	$(GO) test -race -run '$(1)' $(2) $(3) -v
endef

# dist runs the serial-vs-multi-node differential under the race detector:
# random plans deploy their shard replicas over loopback shard workers
# (in-process, so both wire ends are race-checked) and over two real
# shardworker processes, and must stay multiset-identical to serial
# execution. The cmd smoke test rides along: the built aspenql and
# shardworker binaries must print the same rows serial, on a worker process,
# and after rescale + save + restore. The remote hop rides along: a
# selection over a scan runs ahead of its exchange, so a worker is shipped
# exactly the admitted tuples and the result matches serial after every
# tick; every replica call returns at most one result frame, split only
# past the frame cap; and neither end's decoder pins a consumed frame. The
# exchange's batching rides along: every home takes a batch through the
# same call, an in-process home at the end of every push, a worker stream
# only when the batch is full or at a tick, barrier, checkpoint, rescale or
# close (the
# pending-batch differential against serial, in-process and on a loopback
# worker, the ship-point and frame-count pins, and when a result changes
# for a consumer that never flushes); a worker ticks its replicas in shard
# order; and a kept row pins no other row's string. The link's one request
# path rides along: the frame protocol round trip and the stalled worker
# (every request carries its sequence number in the header), and the
# hostile-frame fuzz seeds fed to both ends of the link.
# Mirrored by the CI `distributed` job.
.PHONY: dist
dist:
	$(call race_run,ShardDifferentialMultiNode|ShardDifferentialMixedLocalRemote|DistributedWorkerProcesses|ShardedSelectionRoutesOnlyAdmitted|ShardedSelectionDifferential|ResultFramesPerEpoch|ShardDifferentialPendingBatches|ShardedChangesReachResultWithoutFlush,./internal/plan/,-fuzzshard.nodes=2 -fuzzshard.n=40)
	$(call race_run,ResultSinkOneSendPerCall|ResultFramesSplitAtCap|DecodersPinNothing|KeptRowsPinNoFrame|DecoderInternsStrings|SharderShipPoints|WorkerReplicasRunFramesInOrder|WorkerOverloadBlocksSender|WorkerExecutorLifecycle|WorkerReplicaMidCallWhenLinkDies|ShardConnRoundtrip|ShardConnStalledWorker|FuzzShardFrames,./internal/stream/)
	$(call race_run,RemoteSensorFragment|FragmentIneligible|FragmentQueriesReadOnlyTheirOwnReadings|CompileShardedRemoteFragment|CompileShardedFragmentStaysCentral,./internal/core/ ./internal/plan/)
	$(call race_run,SmokeShardedCLI,./cmd/aspenql/)

# chaos runs the kill-mode differential under the race detector: random
# plans deploy with checkpointed failover armed over loopback shard
# workers — and over 2 real shardworker processes, one SIGKILLed — with a
# worker killed at a random epoch mid-run; the materialized result must
# stay multiset-equal to serial execution and Flush must stay an exact
# barrier. The stream-level matrix (kill-during-flush/-deploy, double
# failure, rejoin, wedged worker, per-operator checkpoint round-trips)
# rides along, as do a kill that cuts a link between a coalesced result
# frame and its credit ack, the sharded-selection differential's worker
# kill, the pending-batch differential's kill with batches held in the
# exchange, and its kill-then-close case: batches Close ships to a worker
# killed after the last tick are replayed, not lost. The home-transition
# table pins that a checkpoint's states come from its reply, with or
# without a replay log. Mirrored by the CI `distributed` job.
.PHONY: chaos
chaos:
	$(call race_run,ShardDifferentialChaos|ChaosWorkerProcessKill|ShardDifferentialChaosCoalescedFrameCut|ShardedSelectionDifferential|ShardDifferentialPendingBatchesRemote|ShardDifferentialKillThenClose,./internal/plan/,-fuzzshard.kill=8)
	$(call race_run,Failover|CheckpointRestore|ShardHomeTransitions|SharderShipPoints|FlushAfterKillBarriersAgain|ConcurrentFlushersWaitForTheirOwnBarrier|PushRacingFlush,./internal/stream/)
	$(call race_run,RemoteSensorFragmentSurvivesWorkerKill|FragmentSnapshotRestart,./internal/core/)
	$(call race_run,SnapshotSaveCrashPoints,./internal/plan/)

# elastic runs the join/leave/restart differential under the race
# detector: random plans serve while workers are added and removed
# (live rescales over the mux), killed (failover, then heal-back when a
# replacement rejoins), and while the coordinator itself is restarted
# mid-run and rehydrated from its snapshot — the materialized result
# must stay multiset-equal to serial execution, including the
# forced-hash-collision sweep. The PR-10 restart differentials ride
# along: shared-chain window state and sensor-fragment deployments
# must come back from a snapshot v2 file exactly as an uninterrupted
# run would have them, across both fragment rehydration tiers (workers
# back, workers gone), a restore whose fragment sources nothing hosts
# must fail whole, and shared result groups must restore one store per
# group, rebuilt from its chain's window, while queries deploy and stop
# around the restart — from a file that holds no group state, and from a
# file written before, with a copy in every member that the restore
# ignores even when it is wrong (and a group's store, keeping its query's
# columns, must retract through its column feed the rows a restore
# filed whole), and the
# sharded-selection differential's live rescale must replay only
# admitted tuples into the moved shards, and the pending-batch
# differential's save, restore and rescale run with batches held in the
# exchange, which a rescale ships to the shards' old homes first.
# The stream-level elastic matrix (pool eviction/redial race,
# per-shard undeploy, rescale validation, the exchange's ship points, and
# the home-transition table, whose rescales and CheckpointAll read every
# worker's states from the checkpoint reply — no replay log without
# failover, exactly the committed states with it; and the rescale
# differential, whose rescale onto a refused address fails at once, with no
# failover to retry behind) rides along, as does the kill-then-close
# differential, whose close waits out the failover. So does a result
# store's memo of its last snapshot's row order, read by snapshots of the
# store, of a live view and of views frozen on the way while pushes and
# restores walk the store through its states.
# Mirrored by the CI `distributed` job.
.PHONY: elastic
elastic:
	$(call race_run,ShardDifferentialElastic|ShardDifferentialJoinLeaveRestart|RescaleLiveDeployment|RescaleHealBack|CoordinatorSnapshot|SnapshotLoadFaults|SnapshotSkipListSurfaced|SnapshotChainsRequireSharing|SharedChainRestartDifferential|SharedResultDifferential|ResultGroupSaveRestore|RestoreParentWrittenGroupSnapshot|RestoreIgnoresGroupCopies|ResultStoreLifecycle|ParseNodesErrors|SnapFragmentRoundTrip|CoordinatorFragmentSnapshotRestore|ShardedSelectionDifferential|ShardDifferentialPendingBatches|ShardDifferentialKillThenClose,./internal/plan/,-fuzzshard.elastic=6)
	$(call race_run,ShardPoolEvictionRedialRace|ShardConnUndeploy|RescaleValidation|RescaleEndToEndDifferential|ElasticOnlyLocalToRemoteAndBack|ShardHomeTransitions|SharderShipPoints|RescaleBetweenFlushes|SnapshotMemoUnderConcurrentMutations,./internal/stream/)
	$(call race_run,FragmentSnapshotRestart|FailedRestoreLeavesNothingDeployed,./internal/core/)

# fuzz-smoke gives every fuzz target a short run: the seed corpus alone
# (FUZZTIME=0 — what plain `go test` and the CI build-and-test job run),
# or FUZZTIME of mutation per target (default 10s; -fuzz takes one target
# and one package at a time). Like race_run it first checks with
# `go test -list` that each target still exists, since -run and -fuzz pass
# silently when a renamed target matches nothing. -fuzzminimizetime 0
# turns minimizing off (go's default spends up to 60s on each input a run
# keeps), so a run of seconds mutates instead of shrinking the kB-sized
# inputs it finds; a failing input is still written whole to the package's
# testdata/fuzz. CI's 30s fuzz steps pass the same flag.
FUZZTIME ?= 10s
FUZZ_TARGETS := FuzzWireBatch:./internal/stream/ FuzzReplicaSpec:./internal/plan/ FuzzPredicateTruth:./internal/expr/ FuzzCheckpointRestore:./internal/stream/ FuzzGroupedFilter:./internal/stream/ FuzzShardFrames:./internal/stream/ FuzzIndexHash:./internal/data/ FuzzSnapshotFile:./internal/plan/ FuzzKeyOrder:./internal/data/ FuzzParsePrint:./internal/sql/
.PHONY: fuzz-smoke
fuzz-smoke:
	@for tp in $(FUZZ_TARGETS); do \
		target=$${tp%%:*}; pkg=$${tp#*:}; \
		$(GO) test -list "^$$target\$$" $$pkg | grep -q "^$$target\$$" || \
			{ echo "make $@: fuzz target $$target not found in $$pkg"; exit 1; }; \
		if [ "$(FUZZTIME)" = 0 ]; then \
			$(GO) test -run "^$$target\$$" $$pkg || exit 1; \
		else \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 0 $$pkg || exit 1; \
		fi; \
	done

# cover gates statement coverage of the partition-parallel core packages,
# the sensor engine, the data model, where the one value order that ORDER BY,
# every snapshot's tie-break and the grouped filter share lives, and the
# routing graph a visitor's guidance searches. The
# floors only rise, and new code arrives tested: a
# change that would lower coverage adds the tests, never a lower floor.
COVER_FLOOR_STREAM  := 92.0
COVER_FLOOR_PLAN    := 89.5
COVER_FLOOR_SENSOR  := 86.5
COVER_FLOOR_DATA    := 97.8
COVER_FLOOR_ROUTING := 100.0
.PHONY: cover
cover:
	@check() { \
		pct=$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$1: coverage run failed"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$2" 'BEGIN { print (p+0 >= f+0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "$$1: coverage $$pct% below floor $$2%"; exit 1; fi; \
		echo "$$1: coverage $$pct% (floor $$2%)"; \
	}; \
	check ./internal/stream/ $(COVER_FLOOR_STREAM) && \
	check ./internal/plan/ $(COVER_FLOOR_PLAN) && \
	check ./internal/sensor/ $(COVER_FLOOR_SENSOR) && \
	check ./internal/data/ $(COVER_FLOOR_DATA) && \
	check ./internal/routing/ $(COVER_FLOOR_ROUTING)

# loc prints non-test Go lines per internal/* package and in total — the
# number ROADMAP aim 2 asks every simplifying PR to report as a delta
# (PERF.md keeps the per-PR tables) — then the stream+plan+core sum, where
# that aim's open items live, and what sits outside internal/: cmd/ plus
# the root package.
.PHONY: loc
loc:
	@count() { ls $$@ | grep -v '_test\.go$$' | xargs cat | wc -l; }; \
	total=0; for d in internal/*/; do \
		n=$$(count $$d*.go); \
		printf '%-24s %6d\n' "$$d" "$$n"; total=$$((total + n)); \
	done; printf '%-24s %6d\n' "internal total" "$$total"; \
	printf '%-24s %6d\n' "stream+plan+core" "$$(count internal/stream/*.go internal/plan/*.go internal/core/*.go)"; \
	printf '%-24s %6d\n' "cmd/ + root" "$$(count cmd/*/*.go *.go)"

# lint runs the static analyzers the CI lint job pins (staticcheck for
# correctness/simplification findings, govulncheck for known-vulnerable
# call paths). The binaries are not vendored; when absent locally the
# target says how to get them and fails, matching CI's install step.
STATICCHECK ?= staticcheck
GOVULNCHECK ?= govulncheck
.PHONY: lint
lint:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || \
		{ echo "staticcheck not found; install with: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1"; exit 1; }
	@command -v $(GOVULNCHECK) >/dev/null 2>&1 || \
		{ echo "govulncheck not found; install with: go install golang.org/x/vuln/cmd/govulncheck@v1.1.4"; exit 1; }
	$(STATICCHECK) ./...
	$(GOVULNCHECK) ./...
