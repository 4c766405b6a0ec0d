# Development targets; `make ci` is what a CI pipeline should run
# (.github/workflows/ci.yml does exactly that, plus a fuzz smoke job).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test fmt vet race crash compact-crash bench bench-smoke bench-json bench-gate fuzz ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails when gofmt would change any tracked Go file. Listing the files
# through git skips untracked build output such as .bench_build/.
fmt:
	@files=$$(git ls-files '*.go') || exit 1; \
	out=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Race-detector pass over the concurrency-heavy packages (the core,
# including concurrent encodes of shared trees, and the pam wrapper)
# plus the dynamic-structure snapshot stress test (concurrent readers
# vs. an inserting/folding writer), the background-carry worker pool,
# and the whole serving layer, including the 1000-schedule differential
# harness with its concurrent replica readers, the crash–recovery
# fault-injection harness, and the writer/reader/snapshotter/rebalancer
# stress tests (TestServeStressCarries covers carries racing
# rebalances).
race:
	$(GO) test -race ./internal/core ./internal/parallel ./pam
	$(GO) test -race -run 'TestDynamicConcurrent' .
	$(GO) test -race ./internal/dynamic
	$(GO) test -race ./serve

# The durability suite on its own: the crash–recovery fault-injection
# harness under -race — sync writers (1000+ randomized kill-point
# schedules), async writers whose futures are still outstanding while
# checkpoints rotate the WAL (1000 more), and point stores — plus the
# deterministic checkpoint/checkpointer/WAL/recovery tests.
crash:
	$(GO) test -race -count=1 -run 'TestCrashRecoverySchedules|TestAsyncCrashRecoverySchedules|TestPointCrashRecoverySchedules|TestDurable' ./serve

# The self-healing suite (PR 8): 1100+ randomized kill-point schedules
# crashing mid-compaction and mid-scrub with bit-flip media corruption
# layered on top, plus the deterministic compaction / Merkle tamper /
# quarantine / repair tests. Contract: every injected corruption is
# repaired or reported, never silent.
compact-crash:
	$(GO) test -race -count=1 -run 'TestCompactCrashSchedules|TestScrubCrashSchedules|TestCompact|TestMerkle|TestRecovery|TestScrub|TestVerify|TestTmpSweep|TestPointCheckpointTamper|TestMemFS' ./serve

bench:
	$(GO) test -bench=. -benchmem .

# The benchmark's smoke test (about 5 s): both bench/ workloads at tiny
# scale, traced and untraced. bench/ is a module of its own, so the
# root's ./... does not reach it.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The committed perf trajectory: the pambench perf suite (ns/op,
# allocs/op, dynamic query-tail p50/p99) as a JSON artifact. CI uploads
# it; bump the filename each PR that re-measures.
BENCH_JSON ?= BENCH_PR10.json
bench-json:
	$(GO) run ./cmd/pambench -json > $(BENCH_JSON)

# Soft perf-regression gate (CI): compare a head perf-suite run against
# a base run and fail only when an allowlisted tier-1 benchmark
# regresses >25% in ns/op or allocs/op. Everything else is
# informational. Both files should come from the same machine.
GATE_BASE ?= $(BENCH_JSON)
GATE_HEAD ?= /tmp/BENCH_head.json
bench-gate:
	$(GO) run ./cmd/benchgate -base $(GATE_BASE) -head $(GATE_HEAD)

# Short exploratory fuzz burst over every fuzz target (each already
# runs its seed corpus under plain `go test`).
fuzz:
	$(GO) test -fuzz=FuzzTreeOps -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzCompressedBlock -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzDynamicLadder -fuzztime=$(FUZZTIME) ./internal/dynamic
	$(GO) test -fuzz=FuzzSegQueries -fuzztime=$(FUZZTIME) ./segcount
	$(GO) test -fuzz=FuzzRectQueries -fuzztime=$(FUZZTIME) ./stabbing
	$(GO) test -fuzz=FuzzDynamicRangeTree -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzDynamicSegCount -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzDynamicStabbing -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzServe -fuzztime=$(FUZZTIME) -run '^$$' ./serve
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) -run '^$$' ./serve
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) -run '^$$' ./serve
	$(GO) test -fuzz=FuzzCompactDecode -fuzztime=$(FUZZTIME) -run '^$$' ./serve

ci: fmt vet build test race bench-smoke
