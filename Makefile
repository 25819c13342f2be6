# mrbio — MapReduce-MPI BLAST & SOM reproduction.

GO ?= go
BIN ?= bin

.PHONY: all build test race lint lint-json lint-baseline lint-stats lint-sarif debug bench bench-shuffle bench-engine perf perf-check figures examples trace-demo metrics-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) build -o $(BIN)/ ./cmd/...

# Static analysis: go vet plus mpilint, the repo's own analyzer suite. All
# three families run: the MPI checks (rank-divergent collectives, aliased
# broadcasts, tag hygiene, unchecked roots, leaked requests), the MapReduce
# checks (phase-protocol order, unsynchronized callback captures, retained
# page buffers, escaped KeyValue handles), and the concurrency checks
# (goroutine-confined handles, recv-first deadlocks, WaitGroup misuse) —
# see README "Correctness tooling". Findings recorded in .mpilint-baseline
# are accepted as pre-existing; only NEW findings fail the build.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mpilint -tests -baseline .mpilint-baseline ./...
	$(GO) run ./cmd/mpilint -world 4 -only unmatched,mismatch,globaldeadlock \
		./cmd/mrblast ./cmd/mrsom ./internal/mrmpi ./internal/mrblast ./internal/mrsom

# Same findings in the machine-readable CI format: one JSON object per line
# (file, line, col, check, message).
lint-json:
	$(GO) run ./cmd/mpilint -tests -json ./...

# Accept the current findings: rewrite the committed baseline. Run this when
# a finding is a deliberate, reviewed exception that an mpilint:ignore
# directive cannot express; the diff to .mpilint-baseline shows up in review.
lint-baseline:
	$(GO) run ./cmd/mpilint -tests -write-baseline .mpilint-baseline ./...

# Finding counts and the mpilint:ignore suppression inventory (every
# directive with its use count and reason).
lint-stats:
	$(GO) run ./cmd/mpilint -tests -stats -baseline .mpilint-baseline ./...

# SARIF 2.1.0 log for GitHub code scanning (uploaded by CI). mpilint exits 1
# when findings exist; the log is the artifact either way.
lint-sarif:
	mkdir -p results
	$(GO) run ./cmd/mpilint -tests -sarif ./... > results/mpilint.sarif; \
		test -s results/mpilint.sarif

# Runtime invariant checker: the mpi test suite with the mpidebug
# collective-fingerprint watchdog compiled in.
debug:
	$(GO) test -tags mpidebug ./internal/mpi

# The default gate: static analysis, the full test suite, the race detector
# on the concurrency-heavy packages, and the mpidebug watchdog tests.
test: lint
	$(GO) test ./...
	$(GO) test -race ./internal/mpi ./internal/mrmpi ./internal/obs/... ./internal/mrblast ./internal/mrsom
	$(GO) test -tags mpidebug ./internal/mpi

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Shuffle hot-path microbenchmarks (KeyValue.Add, DefaultHash, Convert,
# Aggregate), all with ReportAllocs. KeyValue.Add and DefaultHash must stay
# at 0 allocs/op — a nonzero column is an allocation regression in the
# zero-copy ingest path even if ns/op looks fine on a noisy box.
bench-shuffle:
	$(GO) test -bench=. -benchmem -run '^$$' ./internal/mrmpi

# Kernel hot-path microbenchmarks: the BLAST engine's steady-state subject
# scan, its per-HSP banded traceback and the SOM batch-accumulation kernel,
# all with ReportAllocs. BenchmarkSearchSubjectSteadyState,
# BenchmarkBandedAlignStats and BenchmarkBatchAccumulateKernel must stay at
# 0 allocs/op — a nonzero column means a fresh allocation crept back into a
# per-subject, per-HSP or per-vector path. BenchmarkSearchSubjectHomologous
# fails by itself when allocs/op exceed the HSPs it reports plus one.
bench-engine:
	$(GO) test -bench 'BenchmarkSearchSubject|BenchmarkProteinScan|BenchmarkCullContained|BenchmarkBandedAlignStats' -benchmem -run '^$$' ./internal/blast
	$(GO) test -bench 'BenchmarkBatchAccumulate|BenchmarkBMU|BenchmarkQuality' -benchmem -run '^$$' ./internal/som

# Perf-regression harness: run the pinned suite and write the next free
# BENCH_<n>.json (timings, registry metrics, analyzer stats). Compare two
# files with `bin/mrperf compare old.json new.json`.
perf: build
	$(BIN)/mrperf

# CI smoke mode: a quick suite run compared against the newest committed
# baseline (BENCH_2.json, the kernel-speed build); fails on a >25%
# calibration-normalized wall-clock regression. The compares against
# BENCH_1.json (pre-kernel-rewrite) and BENCH_0.json (pre-streaming
# shuffle) are informational: they should keep reporting the engine-scan
# and mrmpi-shuffle improvements, so a silent loss of either win shows up
# in CI logs even when it stays under the regression threshold.
perf-check: build
	mkdir -p results
	$(BIN)/mrperf -quick -out results/BENCH_ci.json
	$(BIN)/mrperf compare BENCH_2.json results/BENCH_ci.json
	$(BIN)/mrperf compare BENCH_1.json results/BENCH_ci.json || echo "perf-check: BENCH_1 compare informational"
	$(BIN)/mrperf compare BENCH_0.json results/BENCH_ci.json || echo "perf-check: BENCH_0 compare informational"

# Regenerate every figure/table of the paper's evaluation.
figures: build
	$(BIN)/benchfig -fig all -out results -csv results/csv

# Observability demo and self-check: train a small SOM on 4 ranks with
# tracing, metrics, per-phase profiling, and the flight recorder on, then
# structurally validate the exported Chrome trace with traceview -check
# (spans nest, begins have ends, clocks are monotonic), print the per-rank
# per-phase summary, stitch the causal DAG (-causal), and write the full
# analyzer report with wait blame (-analyze/-blame). Outputs are
# gzip-compressed (.gz); zcat results/trace-demo.json.gz and load it into
# https://ui.perfetto.dev to browse it.
trace-demo: build
	mkdir -p results
	$(BIN)/genseq -mode vectors -n 4000 -dim 16 -out results/trace-demo-vectors.bin
	$(BIN)/mrsom -data results/trace-demo-vectors.bin -ranks 4 -w 12 -h 12 \
		-epochs 4 -trace results/trace-demo.json.gz -metrics \
		-flight results/trace-demo-flight.json.gz -profile results/trace-demo-prof
	$(BIN)/traceview -check results/trace-demo.json.gz
	$(BIN)/traceview -top 5 results/trace-demo.json.gz
	$(BIN)/traceview -causal results/trace-demo.json.gz
	$(BIN)/mrsom -data results/trace-demo-vectors.bin -ranks 4 -w 12 -h 12 \
		-epochs 4 -comm results/trace-demo-comm.json.gz
	$(BIN)/traceview -comm results/trace-demo-comm.json.gz
	$(BIN)/traceview -analyze -comm results/trace-demo-comm.json.gz \
		-o results/trace-demo-report.txt.gz results/trace-demo.json.gz
	$(BIN)/traceview -blame results/trace-demo.json.gz

# CI conformance gate for the live /metrics route: starts mrblast with a
# status server and comm accounting, scrapes /metrics after the run, and
# validates the Prometheus text exposition with the repo's own parser
# (obs.ValidatePrometheus) — no external dependencies.
metrics-smoke:
	$(GO) test -run TestMetricsEndpointSmoke -v .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/metagenomics
	$(GO) run ./examples/proteinsearch
	$(GO) run ./examples/somcolors -out .
	$(GO) run ./examples/tetrasom

clean:
	rm -rf $(BIN) results som_colors.ppm som_umatrix.pgm
