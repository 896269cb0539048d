# DStress reproduction — common entry points.

GO ?= go

.PHONY: all build test test-short check access-test detv2-test store-test batch-test service-test lint resume-test fleet-test bench bench-json experiments experiments-full fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Static checks + the race detector over the whole tree, with a quick
# short-mode -race pass over the concurrency-heavy packages first so their
# failures surface before the long campaign tests run, a focused
# checkpoint/resume pass over the durability-critical packages, and one
# iteration of each dram micro-benchmark under -race so the evaluation fast
# path stays race-clean against farm workers sharing cloned servers, and
# server clones evaluated and aged concurrently over their shared defect
# maps. The
# full pass keeps an explicit -timeout for the race detector's slowdown;
# natively the campaign test (internal/experiments TestFullCampaign) runs
# in 7.0 s on a 2-vCPU VM (measured at 4254f37).
check:
	$(GO) vet ./...
	$(GO) test -race -short ./internal/farm ./internal/fleet ./internal/ga ./internal/virusdb
	$(GO) test -race -run 'Checkpoint|Resume|Journal|Snapshot' \
		./internal/ga ./internal/core ./internal/farm
	$(GO) test -race -run '^$$' -bench . -benchtime 1x ./internal/dram
	$(GO) test -race -count 1 -run 'TestClone' ./internal/server
	$(MAKE) access-test
	$(MAKE) detv2-test
	$(MAKE) store-test
	$(MAKE) batch-test
	$(MAKE) service-test
	$(MAKE) lint
	$(GO) test -race -timeout 30m ./...

# The access-virus deploy matrix: the deploy digest of the three
# access-driven specs, the memory controller against its plain reference
# model (cached, decoded-row and uncached loads, writes, flushes, resets),
# the rank-0 mirror against a full replay on every rank (1-4 ranks, 4-64
# rows, every cache shape) and its rejection of any state but rank-0 loads,
# the repeated-sweep shortcut against a load-by-load replay (the same
# ranks, rows and shapes, mirrored or not, with the shapes it must not
# take) and its rejection of any state but sweeps of one shape, the tags a
# mirror leaves owed (loads and writes after it against eagerly written
# twins, flushes, and ResetStats dropping the debt), the dense activation
# rates against the rate map, a data virus's deploys leaving the cache's
# tags unallocated, the mirrored table-driven replay against a
# per-address one over every rank at 1, 3, 16 and 17 sweeps, and Fig 11's
# access-over-data gain. Then once more under the race detector.
ACCESS_TESTS = 'TestAccessDeployActsGolden|TestControllerMatchesReference|TestMirrorMatchesFullReplay|TestMirrorRejectsBadState|TestMirrorOwed|TestDenseActsMatchMap|TestDataVirusLeavesCacheUnallocated|TestSweepsMatchLoads|TestSweepsRejectBadState|TestAccessReplayMatchesLoads|TestAccessRowsBeatsDataOnly'

access-test:
	$(GO) test -count 1 -run $(ACCESS_TESTS) ./internal/memctl ./internal/core
	$(GO) test -race -count 1 -run $(ACCESS_TESTS) ./internal/memctl ./internal/core

# The determinism-v2 differential matrix under the race detector: stream
# purity and key independence (xrand), kernel-vs-reference bit-identity and
# order independence (dram), serial/farm-1-2-4-8/kill-and-resume agreement
# (core) and fleet 0/1/2/4-node agreement (dstressd). The v1 suites pin the
# old contract separately and must not move.
detv2-test:
	$(GO) test -race -run 'DetV2' \
		./internal/xrand ./internal/dram ./internal/core ./cmd/dstressd

# The persistence crash matrix: subprocess SIGKILL mid-append, mid-rotation
# and mid-compaction of the segmented store, and mid-append of multi-MB
# header-plus-tail frames (every acknowledged record must replay after a
# strict reopen, a torn tail cut off), the salvage/validation regression
# suites, frame locators and CRC-checked reads, virusdb pages against a
# scan-and-sort reference, the header-plus-tail payload layout and its
# three writers (journal ops carrying opaque checkpoint bytes, virusdb
# frames, the core checkpoint codec) with the digests that pin what each
# writes, and the bit-identity of the bulk mutation draw (whole and split
# by jump-ahead) and the fitness-cache key; virusdb's index snapshot: an
# open through it against a full scan over every state the snapshot can
# be in against its store, its decoder's seeds, the header scan against
# json.Unmarshal, and Close racing reads and appends. Then
# one -race iteration of the store and database packages: they are shared
# by concurrent campaign jobs, and virusdb's own tests race appends, page
# reads, compactions and Close.
store-test:
	$(GO) test -run 'Seglog|Torn|Corrupt|Compact|Manifest|Salvage|Journal|Payload|WriterDigest|CheckpointCodec|FlipBools|Jump|MutateMatches|GenomeKeyDigest|Index|HeaderFields|CloseWaits' \
		./internal/seglog ./internal/virusdb ./internal/farm ./internal/core ./internal/xrand ./internal/ga
	$(GO) test -race -count 1 ./internal/seglog ./internal/virusdb

# The population-batched evaluation differential matrix: batch-vs-serial
# bit-identity at the kernel (internal/dram, including the v1 rejection and
# steady-state allocation budget); in internal/core, each contract's chunk
# evaluator against the per-genome one at 1/2/4/8 workers, a whole v2
# search against one with a single genome per chunk, and the v1 search
# digest recorded under the old per-task dispatch; chunk panics and
# factory order in the farm pool (internal/farm); fleet workers,
# context-digest elision and the worker's bounded context cache
# (internal/fleet); and fleet 0/1/2-node agreement at the daemon surface
# (cmd/dstressd). The kill-and-resume pass re-runs the v2 resume matrix,
# then one -race iteration covers the concurrent chunk dispatch.
batch-test:
	$(GO) test -run 'Batch|PoolChunk|CellSites|LeaseContext|AdvertisesCachedContexts|EvictsContexts' \
		./internal/dram ./internal/core ./internal/farm ./internal/fleet ./cmd/dstressd
	$(GO) test -run 'DetV2Resume' ./internal/core
	$(GO) test -race -count 1 -run 'Batch|CellSites|LeaseContext|AdvertisesCachedContexts|EvictsContexts' \
		./internal/dram ./internal/core ./internal/fleet

# The multi-tenant service matrix: bearer auth (401 envelope, open pprof
# surface, fleet worker pass-through), the job guard (another tenant's live
# or evicted job is a 404), per-tenant quotas (429 + accounting),
# SSE progress streaming, admission-queue ordering (priority bands, FIFO,
# anti-starvation, cancel-from-queue, queueing at submit rather than when
# the job's goroutine runs), the scheduler-leak regressions
# (context-per-timed-job, bounded terminal retention, Drain timer),
# journal-preserved admission identity across a restart, and a two-tenant
# storm over HTTP (no dropped job under 429 retries, client 429s equal to
# the metrics' rejections, neither tenant starved) — then one -race
# iteration of the same surface, since admission and finish are the
# scheduler's hottest lock paths.
SERVICE_TESTS = 'TestScheduler|TestAuth|TestQuota|TestPriority|TestSSE|TestEvicted|TestFleetWorkerAuth|TestServiceStorm'

service-test:
	$(GO) test -run $(SERVICE_TESTS) ./internal/farm ./cmd/dstressd
	$(GO) test -race -count 1 -run $(SERVICE_TESTS) ./internal/farm ./cmd/dstressd

# Static analysis over the persistence/batch-evaluation subsystems and the
# farm and core they plug into: vet, gofmt cleanliness,
# and staticcheck when one is already on PATH (the build never installs
# tools). The benchmark harness is its own module, which the root
# `go build ./...` skips, so lint also vets and builds it: a change to a
# name it imports from the tree fails here.
LINT_PKGS  = ./internal/predict ./internal/seglog \
	./internal/fleet ./internal/ga ./internal/bitvec ./internal/virusdb \
	./internal/memctl ./internal/addrmap ./internal/dram ./internal/server \
	./internal/xrand ./internal/farm ./internal/core ./cmd/benchjson \
	./cmd/dstressd
LINT_DIRS  = internal/predict internal/seglog \
	internal/fleet internal/ga internal/bitvec internal/virusdb \
	internal/memctl internal/addrmap internal/dram internal/server \
	internal/xrand internal/farm internal/core cmd/benchjson \
	cmd/dstressd

lint:
	$(GO) vet $(LINT_PKGS)
	$(GO) -C cmd/dstressbench vet ./...
	$(GO) -C cmd/dstressbench build -o /dev/null ./...
	@out=$$(gofmt -l $(LINT_DIRS)); \
	if [ -n "$$out" ]; then echo "gofmt -w needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck $(LINT_PKGS); \
	else echo "lint: staticcheck not on PATH; vet+gofmt only"; fi

# Kill-and-resume integration: SIGKILL a live dstressd mid-search, restart
# it over the same journal, and require the re-queued job to finish with a
# result bit-identical to an uninterrupted run; the same for a drained
# daemon's journal, and for a journaled job whose checkpoint no longer
# decodes (re-queued from scratch). Stores and checkpoints in the layouts
# only earlier builds wrote are refused, or their jobs re-queued from
# scratch. Plus the in-process kill-at-generation-N resume tests at 1 and
# 8 workers, and a resume through the journal's checkpoint codec.
resume-test:
	$(GO) test -v -run 'TestDaemonKillResumeIntegration|TestRecoverJobsRestartsUndecodableCheckpoint|TestRecoverJSONJournal|TestRemovedLayoutsRefused' ./cmd/dstressd
	$(GO) test -run 'TestRunSearchFrom|TestResume|TestCheckpointCodecResumes' ./internal/core ./internal/ga

# Distributed-fabric integration: a coordinator daemon plus two real worker
# subprocesses, one SIGKILLed mid-job (its shard must re-queue onto the
# survivor), the in-process 1/2/4-worker fleet, and workers splitting
# their shards across 1, 2 and 3 server clones on data64, data24k and
# access-rows — every configuration required to finish bit-identical to
# the purely local farm.Pool run. Then the coordinator's lazily built
# pool clones (none when a worker serves the search, all of them once on
# orphan reclaim), and ten -race iterations of the fleet unit tests, the
# worker's concurrent shard path among them.
fleet-test:
	$(GO) test -v -run 'TestFleetKillWorkerIntegration' ./cmd/dstressd
	$(GO) test -run 'TestFleetEndToEndBitIdentical|TestBatchDetV2FleetBitIdentical' ./cmd/dstressd
	$(GO) test -race -run 'TestEvalPoolClonesLazily' ./internal/core
	$(GO) test -race -count=10 ./internal/fleet

# The benchmark story: the top-level figure benchmarks (one quick-scale
# regeneration each) plus the evaluation-path micro-benchmarks (dram fast
# path vs reference, farm speedup, one access-rows generation, one
# access-rows deploy (the controller repeats one simulated sweep) and one
# access-coeffs deploy (loaded one by one) through the memory controller,
# controller hit and thrash loads, virusdb's Open with and without its
# index snapshot). bench prints;
# bench-json also snapshots the results — including the fast-vs-reference
# speedup ratios — into a dated BENCH_<date>.json for the perf trajectory.
BENCH_FIGS  = $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -timeout 60m .
BENCH_MICRO = $(GO) test -run '^$$' -bench . -benchmem ./internal/dram ./internal/farm ./internal/ecc \
	./internal/core ./internal/memctl ./internal/virusdb

bench:
	$(BENCH_FIGS)
	$(BENCH_MICRO)

# cmd/benchjson derives the speedup_batch_pop* / batch-allocation ratios
# from internal/dram's BenchmarkBatchEval pairs among the micro-benchmarks.
bench-json:
	{ $(BENCH_FIGS) ; $(BENCH_MICRO) ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_$$(date +%Y%m%d).json

# Quick-scale campaign: every figure in a couple of minutes.
experiments:
	$(GO) run ./cmd/experiments -quick -ext

# Full-scale campaign + markdown summary (the EXPERIMENTS.md numbers).
experiments-full:
	$(GO) run ./cmd/experiments -ext -markdown results.md

# Short fuzzing pass over the two parsers, the interpreter, the daemon's
# job-request parser and -auth file loader (their -run skips the daemon's
# subprocess tests), the
# decoders of stored chromosomes (checkpoint genome records, virusdb frames
# and whole journal checkpoints, each with the layouts earlier builds wrote
# as must-reject seeds), virusdb's index snapshot decoder and an open
# through arbitrary snapshot bytes, the journal's op replay on arbitrary frames, the
# memory controller against its plain reference model on arbitrary op
# streams (mirrored and swept segments among them), the segmented store's open over arbitrary segment and
# manifest bytes, and the bulk mutation draw (split across goroutines past
# 2^17 bits) against a Bool loop from arbitrary generator states. Go minimizes each new interesting input for up to 60 s by
# default, and the pass runs no new inputs meanwhile; FUZZ caps that at 500
# executions per input so a 30-s pass spends its window fuzzing.
FUZZ = -fuzztime=30s -fuzzminimizetime=500x

fuzz:
	$(GO) test -fuzz=FuzzParseStmts $(FUZZ) ./internal/minicc
	$(GO) test -fuzz=FuzzInterpreter $(FUZZ) ./internal/minicc
	$(GO) test -fuzz=FuzzParse $(FUZZ) ./internal/vpl
	$(GO) test -run=FuzzJobRequest -fuzz=FuzzJobRequest $(FUZZ) ./cmd/dstressd
	$(GO) test -run=FuzzLoadAuthConfig -fuzz=FuzzLoadAuthConfig $(FUZZ) ./cmd/dstressd
	$(GO) test -run=FuzzDecodeGenome -fuzz=FuzzDecodeGenome $(FUZZ) ./internal/ga
	$(GO) test -run=FuzzDecodeFrame -fuzz=FuzzDecodeFrame $(FUZZ) ./internal/virusdb
	$(GO) test -run=FuzzDecodeIndex -fuzz=FuzzDecodeIndex $(FUZZ) ./internal/virusdb
	$(GO) test -run=FuzzDecodeCheckpoint -fuzz=FuzzDecodeCheckpoint $(FUZZ) ./internal/core
	$(GO) test -run=FuzzJournalReplay -fuzz=FuzzJournalReplay $(FUZZ) ./internal/farm
	$(GO) test -run=FuzzControllerTrace -fuzz=FuzzControllerTrace $(FUZZ) ./internal/memctl
	$(GO) test -run=FuzzSeglogOpen -fuzz=FuzzSeglogOpen $(FUZZ) ./internal/seglog
	$(GO) test -run=FuzzFlipBools -fuzz=FuzzFlipBools $(FUZZ) ./internal/xrand

clean:
	rm -f results.md viruses.json
