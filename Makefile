# Mirrors .github/workflows/ci.yml so CI is reproducible locally:
# `make ci` runs exactly the gates the workflow runs.

GO ?= go

.PHONY: build test vet fmt fmt-check bench bench-json bench-smoke bench-e2e-smoke bench-check bench-ab golden golden-update tuning-smoke shard-smoke service-smoke workload-smoke workload-smoke-update fuzz-smoke coherence-race resilience-race chaos-smoke ci

build:
	$(GO) build ./...

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

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Refresh the "current" run of the perf-trajectory artifact
# (BENCH_baseline.json) from the Table I/II benchmarks. Earlier labeled
# runs — e.g. the pinned pre-optimization numbers — are preserved;
# compare runs with benchstat or by eye. DESIGN.md §10 explains the
# artifact.
#
# Both targets stage go test's output in a temp file so a benchmark
# failure fails the target — a straight pipe would take benchjson's
# exit status and let a partial run slip through.
bench-json:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -bench 'BenchmarkTableI|BenchmarkTableII|BenchmarkStep' -benchtime 1s -run '^$$' . ./internal/machine > "$$tmp" && \
	$(GO) run ./cmd/benchjson -label current -out BENCH_baseline.json < "$$tmp"

# Non-gating perf smoke: the perf-tracked benchmarks and the sweep
# layer's series must still run and their output must still parse into
# the artifact schema. One iteration each — this guards the toolchain,
# not the numbers.
bench-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -bench 'BenchmarkTableI|BenchmarkStep|BenchmarkSweep_ShortInterval' -benchtime 1x -run '^$$' . ./internal/machine > "$$tmp" && \
	$(GO) run ./cmd/benchjson -label smoke -out /dev/null < "$$tmp" && \
	echo "bench-smoke: benchmarks run and parse"

# The repository benchmark's own smoke tests (bench/ is a module of its
# own, so `go test ./...` at the root does not reach it): every workload
# at a reduced scale, its report pins and its ledger, under -race.
bench-e2e-smoke:
	cd bench && $(GO) test -race ./...

# The perf regression gate: re-measure the Table I benchmarks and fail
# on a >10% Minstr/s drop against the committed baseline's "current"
# run. Runs from a different CPU than the baseline's are incomparable,
# so the check downgrades itself to a warning there (see benchjson
# -check) — the gate bites on the machines that refreshed the baseline
# and stays quiet elsewhere.
bench-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp" "$$tmp.json"' EXIT && \
	$(GO) test -bench 'BenchmarkTableI' -benchtime 1s -run '^$$' . > "$$tmp" && \
	$(GO) run ./cmd/benchjson -label current -out "$$tmp.json" < "$$tmp" && \
	$(GO) run ./cmd/benchjson -check BENCH_baseline.json "$$tmp.json"

# Paired A/B comparison of the repository benchmark (not part of ci):
# BASE exported under .bench_build/ab/ and the working tree run
# bench/run.sh in alternating pairs; prints median, IQR and win count
# per workload and end-to-end metric, and fails when a working-tree
# median is worse than BASE's by more than the BENCHMARK.json bound.
#   make bench-ab BASE=<rev> [WORKLOADS=paper-grid,served] [PAIRS=10] [SEED=1]
PAIRS ?= 10
SEED ?= 1
bench-ab:
	@[ -n "$(BASE)" ] || { echo "usage: make bench-ab BASE=<rev> [WORKLOADS=a,b] [PAIRS=10] [SEED=1]" >&2; exit 2; }
	$(GO) run ./cmd/benchab -base '$(BASE)' -workloads '$(WORKLOADS)' -pairs $(PAIRS) -seed $(SEED)

# End-to-end smoke of the coordinator service: start dsmphased on a
# free port with two local workers, submit the figure2 test grid
# through the real client (`experiments -submit`), and require the
# served report to be byte-identical to the direct unsharded run —
# twice, so the second pass also exercises the result cache.
service-smoke:
	@set -e; tmp=$$(mktemp -d); server_pid=""; \
	trap 'if [ -n "$$server_pid" ]; then kill $$server_pid 2>/dev/null || true; fi; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments; \
	$(GO) build -o "$$tmp/dsmphased" ./cmd/dsmphased; \
	"$$tmp/dsmphased" -listen 127.0.0.1:0 -addr-file "$$tmp/addr" -data "$$tmp/data" -experiments "$$tmp/experiments" 2>"$$tmp/server.log" & server_pid=$$!; \
	i=0; while [ ! -f "$$tmp/addr" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -f "$$tmp/addr" ] || { echo "service-smoke: server did not start" >&2; cat "$$tmp/server.log" >&2; exit 1; }; \
	flags="-size test -interval 40000 -apps lu -grids figure2"; \
	"$$tmp/experiments" $$flags > "$$tmp/direct.md"; \
	"$$tmp/experiments" $$flags -submit "http://$$(cat "$$tmp/addr")" > "$$tmp/served.md"; \
	diff "$$tmp/direct.md" "$$tmp/served.md"; \
	"$$tmp/experiments" $$flags -submit "http://$$(cat "$$tmp/addr")" > "$$tmp/cached.md"; \
	diff "$$tmp/direct.md" "$$tmp/cached.md"; \
	echo "service-smoke: served and cached reports byte-identical to direct run"

# The byte-identity gates: every Report and TuningReport encoder
# against its golden file (the TestGolden pattern covers both
# families, plus the shard artifact), the replicates=1 Spec output
# against the legacy figure tables, shard-set merges against the
# unsharded run (all encoders, tuning included), and the
# cmd/experiments output — the tuning scorecard, the shard+merge path,
# and every grid under every -format — across worker counts, all under
# -race.
golden:
	$(GO) test -race -run 'TestGolden|TestSpecLegacyByteIdentity|TestMergeByteIdentity|TestMergeTuningByteIdentity' ./internal/harness
	$(GO) test -race -run 'TestParallelReportByteIdentical|TestTuningScorecardDeterministic|TestShardMergeByteIdentity|TestFormatMatchesMergeAndSpec' ./cmd/experiments

# Regenerate the golden files (report and tuning encoders, shard
# artifact) after an intentional format change; remember to update
# docs/MERGE_FORMAT.md when the shard schema moves.
golden-update:
	$(GO) test -run 'TestGolden' -update ./internal/harness

# End-to-end smoke of the closed adaptive-tuning loop: the -tuning
# scorecard must render with confidence bands on a real (tiny) grid.
tuning-smoke:
	$(GO) run ./cmd/experiments -size test -interval 40000 -apps lu -replicates 2 -tuning > /dev/null

# End-to-end smoke of cross-machine sharding: run a tiny grid as two
# shards, merge the artifacts, and require the merged report to be
# byte-identical to the unsharded run (docs/MERGE_FORMAT.md's core
# guarantee, exercised through the real CLI) — for the default
# scorecard, one figure's curves under -format csv, and the tuning
# grid under -format json. Then the resume path: a rerun of a finished
# -shard-dir shard must resume every cell from its cell stream and
# rewrite a byte-identical artifact.
shard-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments; \
	for extra in "-replicates 2 -tuning" "-grids figure4 -format csv" "-grids tuning -format json"; do \
		flags="-size test -interval 40000 -apps lu $$extra"; \
		"$$tmp/experiments" $$flags > "$$tmp/unsharded"; \
		"$$tmp/experiments" $$flags -shard 0/2 -shard-out "$$tmp/s0.json"; \
		"$$tmp/experiments" $$flags -shard 1/2 -shard-out "$$tmp/s1.json"; \
		"$$tmp/experiments" $$flags -merge "$$tmp/s0.json" "$$tmp/s1.json" > "$$tmp/merged"; \
		diff "$$tmp/unsharded" "$$tmp/merged"; \
		rm -f "$$tmp"/s*.json "$$tmp"/s*.cells.jsonl; \
		echo "shard-smoke: $$extra: merged output byte-identical"; \
	done; \
	flags="-size test -interval 40000 -apps lu -shard 0/2 -shard-dir $$tmp/d"; \
	"$$tmp/experiments" $$flags 2> "$$tmp/first.log"; \
	cp "$$tmp/d/shard_0_of_2.json" "$$tmp/first.json"; \
	"$$tmp/experiments" $$flags 2> "$$tmp/resume.log"; \
	cmp "$$tmp/first.json" "$$tmp/d/shard_0_of_2.json"; \
	resumed=$$(grep -o 'resumed [0-9]* cells' "$$tmp/resume.log") || \
		{ echo "shard-smoke: resume: no 'resumed N cells' line on stderr" >&2; cat "$$tmp/resume.log" >&2; exit 1; }; \
	echo "shard-smoke: resume: $$resumed, artifact byte-identical"

# End-to-end smoke of the workload-definition front ends: run the
# committed example specs — two DSL files and one ingested trace —
# through the real CLI and require the report to be byte-identical to
# the pinned golden. The DSL compiler, the trace replayer, and the
# dynamic-registration path cannot drift silently.
WORKLOAD_SMOKE_FLAGS = -size test -interval 16000 -grids figure2 \
	-workload-file examples/adversarial_phases/oscillate.wdl \
	-workload-file examples/adversarial_phases/drift.wdl \
	-workload-file examples/trace_ingest/pingpong.wdl \
	-apps oscillate,drift,pingpong

workload-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments $(WORKLOAD_SMOKE_FLAGS) > "$$tmp" && \
	diff cmd/experiments/testdata/workload_smoke.golden "$$tmp" && \
	echo "workload-smoke: example-spec report byte-identical to golden"

# Re-pin the workload-smoke golden after an intentional change to the
# example specs or the report format.
workload-smoke-update:
	$(GO) run ./cmd/experiments $(WORKLOAD_SMOKE_FLAGS) > cmd/experiments/testdata/workload_smoke.golden

# Spec-fuzzer smoke: a short fixed-seed, fixed-budget campaign over
# the committed adversarial seeds. Hard invariant violations (compile
# panics, nondeterministic streams, hash instability) fail the gate;
# the campaign must also still find at least one detector-degrading
# spec — the capability the committed examples/fuzz_found corpus was
# born from. DESIGN.md §14 describes the operators and oracles.
fuzz-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/wdlfuzz -budget 40 -seed 1 -out "" -fail-on-invariant > "$$tmp" && \
	grep -q '\[detector\]' "$$tmp" || { echo "fuzz-smoke: no detector finding in fixed-seed campaign" >&2; cat "$$tmp" >&2; exit 1; } && \
	echo "fuzz-smoke: campaign clean, detector finding reproduced"

# The protocol seam's dedicated gate: both coherence backends (the
# conformance suite included), the caches they recycle, the machine
# layer that selects between them, and the harness test that recycles
# caches across concurrent simulations (the pool's Get/Put under
# RunPlan's workers), under the race detector.
coherence-race:
	$(GO) test -race ./internal/cache/... ./internal/coherence/... ./internal/machine/...
	$(GO) test -race -run 'TestSimulateRecyclesCaches' ./internal/harness

# The resilience seam's dedicated gate: the coordinator and the fault
# plane under the race detector — retries, quarantine, degraded
# synthesis and the chaos campaign all cross goroutines.
resilience-race:
	$(GO) test -race ./internal/service/... ./internal/faults/...

# End-to-end smoke of the fault-injection plane through the real CLI:
# a fixed-seed chaos campaign (recovery schedules must complete
# byte-identical, hostile schedules must degrade marking exactly the
# injured cells, replays must be deterministic, corrupt cache entries
# must be evicted and recomputed). docs/SERVICE.md "Failure model".
chaos-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	$(GO) build -o "$$tmp/dsmphased" ./cmd/dsmphased && \
	"$$tmp/dsmphased" -chaos 4 -chaos-seed 1 -data "$$tmp/data" -experiments "$$tmp/experiments" > "$$tmp/chaos.json"

ci: build fmt-check vet test coherence-race resilience-race bench bench-smoke bench-e2e-smoke bench-check golden tuning-smoke shard-smoke workload-smoke fuzz-smoke service-smoke chaos-smoke
