# Mirrors .github/workflows/ci.yml so CI is reproducible locally:
# `make ci` runs exactly the gates the workflow runs.

GO ?= go

.PHONY: build test vet fmt fmt-check bench bench-json bench-smoke bench-e2e-smoke bench-check bench-ab golden-update shard-smoke service-smoke fuzz-smoke chaos-smoke ci

build:
	$(GO) build ./...

# Every test under the race detector. It carries the byte-identity
# gates (every encoder, shard and stream golden, the merge and -parallel
# identities), both coherence backends with their conformance suite, and
# the coordinator and fault plane.
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
# RECORD=<file> also appends the result to that JSON trajectory (a perf
# change records its A/B in BENCH_e2e.json).
#   make bench-ab BASE=<rev> [WORKLOADS=paper-grid,served] [PAIRS=10] [SEED=1] [RECORD=BENCH_e2e.json]
PAIRS ?= 10
SEED ?= 1
bench-ab:
	@[ -n "$(BASE)" ] || { echo "usage: make bench-ab BASE=<rev> [WORKLOADS=a,b] [PAIRS=10] [SEED=1] [RECORD=file]" >&2; exit 2; }
	$(GO) run ./cmd/benchab -base '$(BASE)' -workloads '$(WORKLOADS)' -pairs $(PAIRS) -seed $(SEED) $(if $(RECORD),-record '$(RECORD)')

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

# Regenerate the golden files (report and tuning encoders, shard
# artifact, workload stream digests) after an intentional format or
# stream change; remember to update docs/MERGE_FORMAT.md when the shard
# schema moves.
golden-update:
	$(GO) test -run 'TestGolden' -update ./internal/harness
	$(GO) test -run 'TestStreamDigests' -update ./internal/workloads

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

# Native fuzzing smoke: a few seconds on each trace decoder, on trace
# ingestion (FromTrace), on spec parsing (ParseSpec, and separately the
# hard invariants of the specs it accepts: deterministic streams, equal
# barrier counts per thread, a hash stable under re-parse and
# re-indent), on coordinator job requests (decode through compile and
# the request bounds), on shard artifacts (read, then merged) and on
# cell streams (resumed through a file): an error is fine, a panic or an
# input that does not survive re-encoding is not.
# Minimization is capped so a large seed's mutants do not stall the run.
fuzz-smoke:
	@for target in FuzzReadAccessJSONL FuzzReadJSONL; do \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s -fuzzminimizetime 50x ./internal/trace || exit 1; \
	done; \
	for target in FuzzFromTrace FuzzParseSpec FuzzSpecInvariants; do \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s -fuzzminimizetime 50x ./internal/workloads || exit 1; \
	done; \
	$(GO) test -run '^$$' -fuzz '^FuzzJobRequest$$' -fuzztime 5s -fuzzminimizetime 50x ./internal/service || exit 1; \
	for target in FuzzReadShardArtifact FuzzResumeCellStream; do \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s -fuzzminimizetime 50x ./internal/harness || exit 1; \
	done; \
	echo "fuzz-smoke: trace decoders, trace ingestion, spec parsing, job requests, shard artifacts and cell streams fuzzed clean"

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

ci: build fmt-check vet test bench bench-smoke bench-e2e-smoke bench-check shard-smoke fuzz-smoke service-smoke chaos-smoke
