# neatbound — build/verify targets. Pure-Go module, no external deps.

GO ?= go

# Label for `make bench`'s BENCH_engine.json entry; labels are
# append-only — cmd/benchjson refuses to overwrite an existing one.
BENCH_LABEL ?= current

.PHONY: verify fmt vet build examples docs-check loc perfbench test test-race test-parallel test-pool test-dist test-skip test-mem test-svc test-chaos test-scenarios bench bench-mem

## verify: the full tier-1 gate — formatting, vet, build (`go build
## ./...` compiles the examples too), the package-doc check, the quick
## pooled-parity, distributed-parity, fast-forward-equivalence,
## memory/compaction, sweep-service, and fault-tolerance checks, and
## the race test suite (~6 min; internal/dist's statistical tests
## dominate), plus vet and tests of the perfbench module, which the root
## `go test ./...` never compiles.
verify: fmt vet build docs-check perfbench test-pool test-dist test-skip test-mem test-svc test-chaos test-scenarios test-race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## examples: compile every runnable example (they are ordinary main
## packages, so this is the "does the documented API actually build"
## check).
examples:
	$(GO) build ./examples/...

## docs-check: every package must carry a package doc comment stating
## what it is (and, for the concurrent ones, its ownership contract).
docs-check:
	sh scripts/docs_check.sh

## loc: count the non-test Go lines outside perfbench/ — the size
## figure a simplicity change reports before and after.
loc:
	@sh scripts/loc.sh

## perfbench: vet and test the benchmark module (perfbench/ is a Go
## module of its own, so the root ./... patterns skip it; it imports
## internal packages, so an internal API change can break it).
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

## test-parallel: quick race pass over just the worker-parallel code
## (worker pool, engine delivery shards, network fan-out, sweep job
## queue, façade).
test-parallel:
	$(GO) test -race ./internal/pool/ ./internal/engine/ ./internal/network/ ./internal/sweep/ .

## test-pool: seconds-long short-mode race pass over the worker pool and
## the pooled delivery/checker parity tests, so the tier-1 gate
## exercises the persistent-pool path on every run.
test-pool:
	$(GO) test -race -short ./internal/pool/
	$(GO) test -race -short -run 'Pool|Pooled' ./internal/engine/ ./internal/consistency/ ./internal/sweep/ .

## test-dist: seconds-long short-mode race pass over the distributed
## sweep driver — partitioning, the worker protocol, in-process
## coordinator/worker parity, reassignment after worker death — plus the
## façade and CLI distributed paths. (The real-subprocess parity tests
## skip under -short; the full `test-race` pass runs them.)
test-dist:
	$(GO) test -race -short -run 'Dist|Partition|Worker|Replicate' ./internal/distsweep/ ./internal/sweep/ ./cmd/sweep/ .

## test-skip: seconds-long short-mode race pass over the event-driven
## round-skipping path — the Geometric sampler's draw-for-draw contract,
## the network's uniform broadcast slots, and the step-vs-fast-forward
## equivalence tests (golden traces, artifact byte-identity, sparse
## regimes, adversary state replay).
test-skip:
	$(GO) test -race -short -run 'Geometric|Uniform|SendAll|FastForward' ./internal/dist/ ./internal/network/ ./internal/engine/ .

## test-mem: ~20 s short-mode race pass over the memory path — the SoA
## arena's compaction query-parity, sparse-ID, and payload-side-table
## tests, the checker retention contract, and golden-trace bit-identity
## under aggressive compaction (docs/memory.md).
test-mem:
	$(GO) test -race -short -run 'Compact|Retention|Payload|Sparse' ./internal/blockchain/ ./internal/consistency/ .

## test-svc: seconds-long short-mode race pass over the sweep service —
## the content-addressed store's crash/corruption/keep-first semantics,
## the service's exactly-once cache/coalesce paths and byte-identity
## with RunSweep, the HTTP/SSE surface and façade client, and the
## sweepd server lifecycle (docs/sweepd.md).
test-svc:
	$(GO) test -race -short ./internal/store/ ./internal/sweepsvc/ ./cmd/sweepd/
	$(GO) test -race -short -run 'SweepClient|SweepRequest' .

## test-chaos: seconds-long short-mode race pass over the
## fault-tolerance layer (docs/faults.md) — the deterministic chaos
## soak (seeded worker kills, hangs, truncation, and corruption with
## exactly-once commits and cold-run byte-identity), the
## checkpoint/resume crash edges, stall detection, respawn backoff,
## permanent-failure fast-fail, and the daemon's job-journal recovery.
## Every fault schedule is seeded and the seed appears in the failure
## message, so a red run replays exactly. (The real-subprocess kill -9
## and stderr-tail tests skip under -short; `test-race` runs them.)
test-chaos:
	$(GO) test -race -short -run 'Chaos|Checkpoint|Resume|Stall|Backoff|Permanent|SweepKey|Journal|StderrTail' \
		./internal/distsweep/ ./internal/store/ ./internal/sweepsvc/ ./cmd/sweepd/ ./cmd/sweep/

## test-scenarios: seconds-long short-mode race pass over the scenario
## layer (docs/scenarios.md) — the stochastic delay policies' delivery
## window and recipient-invariance properties, the partition heal, churn
## selection and weighted mining (incl. the all-ones ≡ unweighted
## identity and the FastForward disarm), the scenario golden traces
## across shard counts and the pool, the interchange/shard-spec fuzz
## seed corpora, and the xval theory cross-checks (every scenario must
## sit on the correct side of the paper's bounds near c*). Every
## stochastic check prints its seed in the failure message, so a red
## run replays exactly.
test-scenarios:
	$(GO) test -race -short -run 'Scenario|Churn|Weighted|Partition|Bursty|CrossCheck|Threshold|Compile|SkewedWeights|ParseRoundTrip|ValidateRejects|Fuzz' \
		./internal/network/ ./internal/engine/ ./internal/scenario/... ./internal/sweep/ ./internal/distsweep/ .

## bench: append the BENCH_engine.json entry labeled $(BENCH_LABEL),
## then run the façade benchmarks — the core count is stamped
## automatically, so entries are comparable across machines. Labels are
## append-only: the measured trajectory is hand-curated per change, so
## cmd/benchjson refuses an existing label (before measuring anything)
## rather than silently rewriting history.
bench:
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_engine.json
	$(GO) test -bench . -benchmem -run '^$$' .

## bench-mem: the n = 10⁶ sparse-p memory benchmark (n·p = 0.1, 10⁵
## rounds) with fast-forward, arena compaction, and a bounded checker
## retention window: the run mines ~10⁴ blocks but the arena stays
## ~10³ live, and heap_peak_bytes/live_blocks land in the entry (the
## pr7-mem-n1e6 configuration). Same append-only label discipline as
## bench; ~1 min.
bench-mem:
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_engine.json \
		-n 1000000 -p 1e-7 -delta 10 -nu 0.3 -rounds 100000 -iters 3 \
		-fast-forward -compact-every 2000 -checker-retention 4
