# Only what `go test ./...` cannot say: the race detector, native fuzzing
# with a fuzz time, the separate bench/ module, the paired perf
# comparison and the golden re-pin. Every other assertion lives in a Go
# test. `make ci` runs exactly the gates .github/workflows/ci.yml runs,
# one make target per workflow step.

GO ?= go

.PHONY: build test vet fmt fmt-check bench bench-e2e-smoke bench-ab golden-update fuzz-smoke ci

build:
	$(GO) build ./...

# Every test under the race detector: the byte-identity gates (every
# encoder, shard and stream golden, the merge, resume, -parallel and
# served-report identities), both coherence backends, and the
# coordinator, its CLI and its forced-fault tests.
test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# Every benchmark runs one iteration: guards that they still run, not
# their numbers (bench-ab compares numbers).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The repository benchmark's own smoke tests (bench/ is a module of its
# own, so `go test ./...` at the root does not reach it): every workload
# at a reduced scale, its report pins and its ledger, under -race.
bench-e2e-smoke:
	cd bench && $(GO) test -race ./...

# The perf gate (not part of ci; it needs a base revision): BASE is
# exported under .bench_build/ab/ and it and the working tree run
# bench/run.sh per workload and the Table I micro-benchmarks in
# alternating pairs. It prints median, IQR and win count per metric, and
# fails when a working-tree median is worse than BASE's by more than the
# metric's bound (BENCHMARK.json's for the workloads, 10% of ns/op for
# Table I). RECORD=<file> also appends the result to that JSON
# trajectory (a perf change records its A/B in BENCH_e2e.json).
#   make bench-ab BASE=<rev> [WORKLOADS=paper-grid,served] [PAIRS=10] [SEED=1] [RECORD=BENCH_e2e.json]
PAIRS ?= 10
SEED ?= 1
bench-ab:
	@[ -n "$(BASE)" ] || { echo "usage: make bench-ab BASE=<rev> [WORKLOADS=a,b] [PAIRS=10] [SEED=1] [RECORD=file]" >&2; exit 2; }
	$(GO) run ./cmd/benchab -base '$(BASE)' -workloads '$(WORKLOADS)' -pairs $(PAIRS) -seed $(SEED) $(if $(RECORD),-record '$(RECORD)')

# Regenerate the golden files (report and tuning encoders, shard
# artifact, workload stream digests) after an intentional format or
# stream change; remember to update docs/MERGE_FORMAT.md when the shard
# schema moves.
golden-update:
	$(GO) test -run 'TestGolden' -update ./internal/harness
	$(GO) test -run 'TestStreamDigests' -update ./internal/workloads

# Native fuzzing smoke, 5 s per target: the trace decoders, trace
# ingestion, spec parsing and the invariants of accepted specs, job
# requests, shard artifacts and cell streams. An error is fine; a panic
# or an input that does not survive re-encoding is not. Minimization is
# capped so a large seed's mutants do not stall the run.
FUZZ = $(GO) test -run '^$$' -fuzztime 5s -fuzzminimizetime 50x
fuzz-smoke:
	@for target in FuzzReadAccessJSONL FuzzReadJSONL; do \
		$(FUZZ) -fuzz "^$$target\$$" ./internal/trace || exit 1; \
	done; \
	for target in FuzzFromTrace FuzzParseSpec FuzzSpecInvariants; do \
		$(FUZZ) -fuzz "^$$target\$$" ./internal/workloads || exit 1; \
	done; \
	$(FUZZ) -fuzz '^FuzzJobRequest$$' ./internal/service || exit 1; \
	for target in FuzzReadShardArtifact FuzzResumeCellStream; do \
		$(FUZZ) -fuzz "^$$target\$$" ./internal/harness || exit 1; \
	done; \
	echo "fuzz-smoke: every fuzz target ran clean"

ci: build fmt-check vet test bench bench-e2e-smoke fuzz-smoke
