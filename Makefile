# DStress reproduction — common entry points.

GO ?= go

.PHONY: all build test test-short check detv2-test islands-test store-test batch-test service-test lint resume-test fleet-test bench bench-json experiments experiments-full fuzz clean

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
# path stays race-clean against farm workers sharing cloned servers. The
# full pass needs an explicit -timeout: the campaign test runs ~90s
# natively, and the race detector's slowdown pushes it past go test's 600s
# default.
check:
	$(GO) vet ./...
	$(GO) test -race -short ./internal/farm ./internal/fleet ./internal/ga ./internal/virusdb
	$(GO) test -race -run 'Checkpoint|Resume|Journal|Snapshot' \
		./internal/checkpoint ./internal/ga ./internal/core ./internal/farm
	$(GO) test -race -run '^$$' -bench . -benchtime 1x ./internal/dram
	$(MAKE) detv2-test
	$(MAKE) islands-test
	$(MAKE) store-test
	$(MAKE) batch-test
	$(MAKE) service-test
	$(MAKE) lint
	$(GO) test -race -timeout 30m ./...

# The determinism-v2 differential matrix under the race detector: stream
# purity and key independence (xrand), kernel-vs-reference bit-identity and
# order independence (dram), serial/farm-1-2-4-8/kill-and-resume agreement
# (core) and fleet 0/1/2/4-node agreement (dstressd). The v1 suites pin the
# old contract separately and must not move.
detv2-test:
	$(GO) test -race -run 'DetV2' \
		./internal/xrand ./internal/dram ./internal/core ./cmd/dstressd

# Island-model bit-identity matrix: stepper determinism and snapshot resume
# (internal/ga, internal/islands), the core kill-and-resume matrix at
# 1/2/4 islands × 1/8 farm workers under both determinism contracts with
# surrogate screening on and off (internal/core), and the daemon surface —
# fleet 0/2-node agreement, island job submission and the islands/eval
# sections of /api/v1/metrics (cmd/dstressd). The suite then repeats once
# under the race detector: island evaluation fans out one goroutine per
# island over shared farm pools.
islands-test:
	$(GO) test -run 'Islands' \
		./internal/ga ./internal/islands ./internal/core ./cmd/dstressd
	$(GO) test -race -count 1 -run 'Islands' \
		./internal/ga ./internal/islands ./internal/core ./cmd/dstressd

# The persistence crash matrix: subprocess SIGKILL mid-append, mid-rotation
# and mid-compaction of the segmented store (every acknowledged record must
# replay after a strict reopen), the staged crash windows of the
# legacy-file migration (virusdb JSON array, farm whole-doc journal), the
# salvage/validation regression suites, and one -race iteration of the
# store package: the store is shared by concurrent campaign jobs.
store-test:
	$(GO) test -run 'Seglog|Migrat|Torn|Corrupt|Compact|Manifest|Salvage|Journal' \
		./internal/seglog ./internal/virusdb ./internal/farm
	$(GO) test -race -count 1 ./internal/seglog

# The population-batched evaluation differential matrix: batch-vs-serial
# bit-identity at the kernel (internal/dram, including the v1 rejection and
# steady-state allocation budget), chunked-vs-per-task farm dispatch at
# 1/2/4/8 workers plus a whole chunked search against a per-task reference
# (internal/core), chunked fleet workers and context-digest elision
# (internal/fleet), and fleet 0/1/2-node agreement at the daemon surface
# (cmd/dstressd). The kill-and-resume pass re-runs the v2 resume matrix,
# which now checkpoints and resumes through the chunked path, then one
# -race iteration covers the concurrent chunk dispatch.
batch-test:
	$(GO) test -run 'Batch|LeaseContext|AdvertisesCachedContexts' \
		./internal/dram ./internal/core ./internal/farm ./internal/fleet ./cmd/dstressd
	$(GO) test -run 'DetV2Resume' ./internal/core
	$(GO) test -race -count 1 -run 'Batch|LeaseContext|AdvertisesCachedContexts' \
		./internal/dram ./internal/core ./internal/fleet

# The multi-tenant service matrix: bearer auth (401 envelope, open pprof
# surface, fleet worker pass-through), the job guard (another tenant's live
# or evicted job is a 404), per-tenant quotas (429 + accounting),
# SSE progress streaming, admission-queue ordering (priority bands, FIFO,
# anti-starvation, cancel-from-queue), the scheduler-leak regressions
# (context-per-timed-job, bounded terminal retention, Drain timer), and
# journal-preserved admission identity across a restart — then one -race
# iteration of the same surface, since admission and finish are the
# scheduler's hottest lock paths.
service-test:
	$(GO) test -run 'TestScheduler|TestAuth|TestQuota|TestPriority|TestSSE|TestEvicted|TestFleetWorkerAuth' \
		./internal/farm ./cmd/dstressd
	$(GO) test -race -count 1 \
		-run 'TestScheduler|TestAuth|TestQuota|TestPriority|TestSSE|TestEvicted|TestFleetWorkerAuth' \
		./internal/farm ./cmd/dstressd

# Static analysis over the island/surrogate/persistence/batch-evaluation
# subsystems: vet, gofmt cleanliness, and staticcheck when one is already on
# PATH (the build never installs tools). The dram and farm packages are
# gofmt-checked by explicit file list: their kernel files carry intentional
# manual alignment that predates this check.
LINT_PKGS  = ./internal/islands ./internal/predict ./internal/seglog \
	./internal/fleet ./internal/ga ./internal/bitvec ./internal/virusdb \
	./cmd/benchjson ./cmd/loadgen ./cmd/dstressd
LINT_DIRS  = internal/islands internal/predict internal/seglog \
	internal/fleet internal/ga internal/bitvec internal/virusdb \
	cmd/benchjson cmd/loadgen cmd/dstressd
LINT_FILES = internal/dram/batch.go internal/dram/metrics.go \
	internal/farm/pool.go internal/farm/metrics.go internal/farm/scheduler.go \
	internal/farm/tenant.go internal/farm/journal.go internal/core/parallel.go

lint:
	$(GO) vet $(LINT_PKGS)
	@out=$$(gofmt -l $(LINT_DIRS) $(LINT_FILES)); \
	if [ -n "$$out" ]; then echo "gofmt -w needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck $(LINT_PKGS); \
	else echo "lint: staticcheck not on PATH; vet+gofmt only"; fi

# Kill-and-resume integration: SIGKILL a live dstressd mid-search, restart
# it over the same journal, and require the re-queued job to finish with a
# result bit-identical to an uninterrupted run (plus the in-process
# kill-at-generation-N resume tests at 1 and 8 workers).
resume-test:
	$(GO) test -v -run 'TestDaemonKillResumeIntegration' ./cmd/dstressd
	$(GO) test -run 'TestRunSearchFrom|TestResume' ./internal/core ./internal/ga

# Distributed-fabric integration: a coordinator daemon plus two real worker
# subprocesses, one SIGKILLed mid-job (its shard must re-queue onto the
# survivor), and the in-process 1/2/4-worker fleet — every configuration
# required to finish bit-identical to the purely local farm.Pool run.
fleet-test:
	$(GO) test -v -run 'TestFleetKillWorkerIntegration' ./cmd/dstressd
	$(GO) test -run 'TestFleetEndToEndBitIdentical' ./cmd/dstressd
	$(GO) test -race ./internal/fleet

# The benchmark story: the top-level figure benchmarks (one quick-scale
# regeneration each) plus the evaluation-path micro-benchmarks (dram fast
# path vs reference, farm speedup). bench prints; bench-json also snapshots
# the results — including the fast-vs-reference speedup ratios — into a
# dated BENCH_<date>.json for the perf trajectory.
BENCH_FIGS  = $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -timeout 60m .
BENCH_MICRO = $(GO) test -run '^$$' -bench . -benchmem ./internal/dram ./internal/farm ./internal/ecc

bench:
	$(BENCH_FIGS)
	$(BENCH_MICRO)

# bench-json also runs the islands-vs-single-population campaign (see
# cmd/benchjson/campaign.go), the persistence benchmark (store.go) and the
# batched-evaluation comparison (batch.go) so every snapshot carries the
# campaign_* ratios, the store append-latency trajectory and the
# speedup_batch_pop* / batch-allocation ratios.
bench-json:
	{ $(BENCH_FIGS) ; $(BENCH_MICRO) ; } \
		| $(GO) run ./cmd/benchjson -campaign -store -batch \
			-out BENCH_$$(date +%Y%m%d).json

# Quick-scale campaign: every figure in a couple of minutes.
experiments:
	$(GO) run ./cmd/experiments -quick -ext

# Full-scale campaign + markdown summary (the EXPERIMENTS.md numbers).
experiments-full:
	$(GO) run ./cmd/experiments -ext -markdown results.md

# Short fuzzing pass over the two parsers, the interpreter, the daemon's
# job-request parser (its -run skips the daemon's subprocess tests) and the
# two decoders of stored chromosomes: checkpoint genome records and virusdb
# frames, in both their packed and legacy bit-string forms.
fuzz:
	$(GO) test -fuzz=FuzzParseStmts -fuzztime=30s ./internal/minicc
	$(GO) test -fuzz=FuzzInterpreter -fuzztime=30s ./internal/minicc
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/vpl
	$(GO) test -run=FuzzJobRequest -fuzz=FuzzJobRequest -fuzztime=30s ./cmd/dstressd
	$(GO) test -run=FuzzDecodeGenome -fuzz=FuzzDecodeGenome -fuzztime=30s ./internal/ga
	$(GO) test -run=FuzzDecodeFrame -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/virusdb

clean:
	rm -f results.md viruses.json
