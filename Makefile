# AutoMap reproduction — common targets.

GO ?= go

.PHONY: all build test race vet bench bench-search benchmark fuzz check experiments experiments-quick cover clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Static analysis: go vet plus the project's own mapvet suite
# (tools/mapvet), which enforces the determinism, atomicity, and
# goroutine-lifecycle invariants. See README "Static analysis".
vet:
	$(GO) vet ./...
	$(GO) test -C tools/mapvet ./...
	$(GO) build -C tools/mapvet -o ../../bin/mapvet .
	./bin/mapvet -C . ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .
	./scripts/bench.sh

# Search-pipeline micro-benchmarks (simulator hot path, candidate
# construction) at -cpu 1,4,8, written to BENCH_search.json. End-to-end
# figures come from `make benchmark`.
bench-search:
	./scripts/bench.sh

# The repository's benchmark (BENCHMARK.json, benchmark/README.md): one
# workload per run, WORKLOAD one of search-ccd-htr, search-anneal-pennant,
# serve-fleet-mixed; TRACE=1 adds the per-layer traced pass. Equivalent to
#   bash benchmark/run.sh --workload W --seed N --seconds 25 --trace 0|1
WORKLOAD ?= search-ccd-htr
SEED ?= 1
TRACE ?= 0
benchmark:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 25 --trace $(TRACE)

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -fuzz FuzzInputParsers -fuzztime 30s ./internal/apps
	$(GO) test -fuzz FuzzLoad -fuzztime 20s ./internal/mapping
	$(GO) test -fuzz FuzzCanonicalKey -fuzztime 20s ./internal/mapping
	$(GO) test -fuzz FuzzLoad -fuzztime 20s ./internal/profile
	$(GO) test -fuzz FuzzAnalyze -fuzztime 30s ./internal/analyze
	$(GO) test -fuzz FuzzLoadCheckpoint -fuzztime 30s ./internal/checkpoint
	$(GO) test -fuzz FuzzDecodeBundle -fuzztime 20s ./internal/fleet
	$(GO) test -fuzz FuzzRingChurn -fuzztime 20s ./internal/fleet
	$(GO) test -fuzz FuzzFoldLanesKernel -fuzztime 20s ./internal/sim
	$(GO) test -fuzz FuzzApplyColocation -fuzztime 20s ./internal/search

# Static gate: vet, race-enabled tests, and mapcheck over every bundled
# application's default mapping on both machine models.
check:
	./scripts/ci.sh

# Full-protocol reproduction of every table and figure (~1 min on 2 vCPUs).
experiments:
	$(GO) run ./cmd/experiments -fig all -csv results | tee results/full_results.txt

# Reduced-protocol smoke pass (~10 s on 2 vCPUs).
experiments-quick:
	$(GO) run ./cmd/experiments -fig all -quick

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
