GO ?= go

.PHONY: all build test test-race flake runnames compat vet fmt loc bench bench-all clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race is the CI race job: the pipelined runtimes and the parallel
# kernel must stay clean under the race detector.
test-race:
	$(GO) test -race -short ./...

# flake is the flake budget: the cross-transport conformance table many
# times over (its kill cases must complete on the survivors whatever
# the scheduler does with two cores, computing nothing twice), with the
# pushed sets' cache budget beside every chunk in flight, every worker
# of real cluster jobs holding no more blocks than it advertises, a worker cut
# off inside its result frame, the feeder's join of a parked Send and
# its commit of a tile the worker sent home unasked just before it hung
# up, and a TCP worker that allocates no block buffer after its first
# job (its blocks leave at each job's end), then the three packages whose
# tests run goroutine fleets over real sockets, repeatedly under the
# race detector, with the journal beside them. A failure here is a test
# that passes "most runs". Then the same three under the poolcheck
# tag: a block released twice panics and a block read after release
# reads NaN poison, so a by-reference hand-off that frees too early
# fails loudly instead of passing on recycled floats — and, 50 times
# over, the LU stage panel a lost session's Set still references and
# the pool blocks a replay decodes recovered jobs into. Then
# the adaptive policy, the cutter every task comes from, the recovery
# of lost and refused chunks, of pre-cut, unstarted-job and v0-layout
# snapshots and of every crash point of a scripted run (a task computed
# while its job's accept record is written among them), an accept whose
# append fails with a task in flight, the drop of released jobs only,
# jobs numbered past the block-ID fields, the free-list check, and every
# test that asserts a dispatcher stays parked, 50 times over under the
# race detector, and the block ledger's cluster jobs and the mirrored
# caches' job ends 20 times over under it. Then the fleet runs (package internal/fleet), once
# under the race detector: they drive the scheduler from one goroutine
# in virtual time, so a repeat replays the same run. Then the
# worker-session tests — a stale incarnation acting on its successor,
# the non-blocking TryNext's answers, the session hold that is the
# only pin on a finished job's operands and on an LU stage's panel —
# with an LU job failing on a zero pivot and refusing a corrupt tile,
# 50 times over under the race detector. Last, the netmw tests of the pushed-set
# schedule and the client hop — rogue workers (one with a corrupt
# result checksum), the injected-fault
# harness, the parked Send and the reused reply staging — and the
# limited-memory worker that must keep its row's A blocks, 20 times
# over under the race detector.
flake:
	$(GO) test -count 20 -run 'TestEngineConformance|TestSetCapLeavesRoomForInflight|TestWorkerHoldsAdvertisedMemory|TestCutInsideResultFrame|TestFeederJoinsParkedSend|TestFeederCommitsResultBeforeLost|TestWorkerReusesBlocksAcrossJobs' ./internal/engine ./internal/netmw
	$(GO) test -race -count 5 ./internal/engine ./internal/netmw ./internal/cluster ./internal/store
	$(GO) test -tags poolcheck -count 3 ./internal/engine ./internal/netmw ./internal/cluster
	$(GO) test -tags poolcheck -count 50 -run 'TestStagePanelOutlivesLostHolder|TestRecoveredJobsPooled' ./internal/cluster
	$(GO) test -race -count 50 -run 'TestAdaptive|TestSpeculation|TestEngineFeedLost|TestCompleteDeadJob|TestMultiSlotDispatch|TestSlotCap|TestChunkSide|TestStragglerGain|TestCutter|TestChunkClamped|TestLost|TestMalformedFlush|TestRecoverPreCut|TestRecoverQueuedSnapshot|TestRecoverHandedBack|TestRecoverCorrupt|TestRecoverCrashPointSweep|TestRecoverRefusesBadFreeList|TestRecoverV0DuplicateSeq|TestSubmitRefusedWhenFsyncFails|TestDropNamesOnlyReleasedJobs|TestJobsPastBlockIDFieldsRun' ./internal/cluster
	$(GO) test -race -count 20 -run 'TestWorkerHoldsAdvertisedMemory|TestMirroredCachesNeverDiverge' ./internal/engine
	$(GO) test -race -count 1 -run 'TestFleet' ./internal/fleet
	$(GO) test -race -count 50 -run 'TestStale|TestRejoin|TestFeedHold|TestNextAfterClose|TestTryNextContract|TestFailedJobReleases|TestFinishedJobReleases|TestSpeculationWinner|TestLUJobZeroPivotFails|TestStagePanelOutlivesLostHolder|TestVerifyCorruptLUTileRefused' ./internal/cluster
	$(GO) test -race -count 20 -run 'TestPullDialectWorkerSevered|TestMasterSurvivesShortResult|TestResultCRCFaultCounted|TestClusterTCPSurvivesInjectedFaults|TestParkedSetPinsItsJobsOperands|TestReplyStagingReused|TestTightMemory' ./internal/netmw

# compat builds mwworker and an mmserve -submit client from REV
# (default: the last commit before HEAD that touched the wire,
# internal/netmw/proto.go) into .bench_build/compat and runs them
# against this build's mmserve: each must be refused, naming the
# protocol version, within 1 s, and this build's own fleet must still
# finish a matmul and an LU submit bit-exact. It needs git history, so
# CI runs it and tier-1 does not.
compat:
	REV=$(REV) sh scripts/compat.sh

# runnames fails when a -run alternative here or in the CI workflow
# names no test, so a renamed or moved test cannot drop out silently.
runnames:
	sh scripts/check-run-names.sh

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# loc prints the non-test Go lines of every package directory, whatever
# the build tags, and their total: the figures each CHANGES entry quotes.
loc:
	@find . -name '*.go' ! -name '*_test.go' -exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# bench records the performance series tracked across PRs: the cluster
# benchmarks to BENCH_cluster.json (including the 100-worker fleet's
# makespan-vs-LP-bound series with and without adaptation, from
# BenchmarkClusterFleetAdaptive), the kernel GFLOP/s series (one row per
# micro-kernel the host supports, named after it, at q ∈ {64, 80, 100,
# 128, 256}: the packed GEMM replayed hot, over cold operands and per
# 4×4 update set, against the historical axpy kernel; plus the parallel
# speedups) to BENCH_kernel.json, and
# the TCP engine path to BENCH_transport.json — steady-state allocs/op
# + MB/s (pooled vs unpooled block buffers) plus the max-reuse
# delta/flush series from BenchmarkTransportDelta: egress-MB/op,
# %cache-hit, flush-blocks/op, flush-MB/op and x-lower-bound (measured communication over the §4
# Loomis–Whitney bound) — and the durable control plane's boot-time
# replay cost (recovery-ms, jobs-replayed, journal-MB,
# replay-events/s from BenchmarkServeRecovery) and the Freivalds
# result-verification overhead series (makespan-ms off vs all,
# verify-ms, verify-overhead-% from BenchmarkServeVerify) to
# BENCH_serve.json — all parsed by cmd/benchjson. The kernel
# series runs 5 iterations per point so a single noisy timeslice cannot
# skew the recorded Gflops. The fleet run also renders its per-worker
# Gantt timeline (idle/comm/compute/speculation lanes) to
# BENCH_fleet.svg.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCluster' -benchtime 2x -count 1 . | $(GO) run ./cmd/benchjson > BENCH_cluster.json
	@cat BENCH_cluster.json
	$(GO) run ./cmd/mmsim -fleet 100 -svg BENCH_fleet.svg
	$(GO) test -run '^$$' -bench 'BenchmarkPackedKernel|BenchmarkParallelKernel|BenchmarkBlockUpdate' -benchtime 5x -count 1 ./internal/blas . | $(GO) run ./cmd/benchjson > BENCH_kernel.json
	@cat BENCH_kernel.json
	$(GO) test -run '^$$' -bench 'BenchmarkTransport' -benchtime 4x -count 1 . | $(GO) run ./cmd/benchjson > BENCH_transport.json
	@cat BENCH_transport.json
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchtime 3x -count 1 . | $(GO) run ./cmd/benchjson > BENCH_serve.json
	@cat BENCH_serve.json

# bench-all smoke-runs every benchmark once (the paper's tables/figures).
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 1 .

clean:
	rm -f BENCH_cluster.json BENCH_kernel.json BENCH_transport.json BENCH_serve.json BENCH_fleet.svg
