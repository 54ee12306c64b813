# neatbound — build/verify targets. Pure-Go module, no external deps.

GO ?= go

# Label for `make bench`'s BENCH_engine.json entry; labels are
# append-only — cmd/benchjson refuses to overwrite an existing one.
BENCH_LABEL ?= current

.PHONY: verify fmt vet build examples docs-check loc perfbench test test-race test-parallel test-skip test-mem test-svc test-chaos test-scenarios bench bench-mem

## verify: the full tier-1 gate — formatting, vet, build (`go build
## ./...` compiles the examples too), the package-doc check, the quick
## fast-forward-equivalence, memory/compaction, sweep-service,
## fault-tolerance and scenario checks, and the race test suite
## (~6 min; internal/dist's statistical tests dominate), plus vet and
## tests of the perfbench module, which the root `go test ./...` never
## compiles.
verify: fmt vet build docs-check perfbench test-skip test-mem test-svc test-chaos test-scenarios test-race

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
## (sweep job queue, façade).
test-parallel:
	$(GO) test -race ./internal/sweep/ .

## test-skip: seconds-long short-mode race pass over the event-driven
## round-skipping path — the Geometric sampler's draw-for-draw contract,
## the network's nil-list entries and the delivery-schedule fuzz seeds,
## the step-vs-fast-forward equivalence tests (golden traces, artifact
## byte-identity, sparse regimes, adversary state replay), the quiet-span
## folds (the O(1) convergence counter against the window reference,
## span observers and RunOne against per-round dispatch, flat
## allocation per round), the unknown-block error on the
## flash-delivery path, cancellation (the engine's and the façade
## Run's, which stop at the exact round a per-round observer cancels
## in, stepped or fast-forwarded), and the Switcher rotation, which
## steps and must leave step-identical records, plus the seed corpus of
## FuzzRunOneMatchesStep (sweep.RunOne against a stepping copy on every
## report field but LiveBlocks, the Switcher rotation and all-deviant
## rebase repros among the seeds).
test-skip:
	$(GO) test -race -short -run 'Geometric|Uniform|SendAll|DeliverySchedule|FastForward|UnknownBlock|Cancellation|SwitcherRotation|RunOneMatchesStep' ./internal/dist/ ./internal/network/ ./internal/engine/ ./internal/consistency/ .

## test-mem: ~20 s short-mode race pass over the memory path — the SoA
## arena's compaction query-parity and sparse-ID tests, the subtree
## labelling against IsAncestor and the labelled consistency scans
## against the per-pair predicate (both across compaction), the O(1)
## MainChainShare against the fork-statistics scan it replaced (random
## trees across compaction, every adversary's RunOne report), the
## checker retention contract, golden-trace bit-identity under
## aggressive compaction, and the height-counter rebase when every lazy
## view is a taller deviant (docs/memory.md).
test-mem:
	$(GO) test -race -short -run 'Compact|Retention|Sparse|SubtreesMatch|ScanMatches|AllDeviantRebase|MainChainShare' ./internal/blockchain/ ./internal/consistency/ ./internal/metrics/ .

## test-svc: seconds-long short-mode race pass over the sweep service —
## the content-addressed store's crash/corruption/keep-first semantics
## and its fixed-frame reads against the encoding/json decode, the
## service's exactly-once cache/coalesce paths and byte-identity with
## RunSweep, the HTTP/SSE surface and façade client, the sweepd server
## lifecycle (docs/sweepd.md), the subset runs its cache misses go
## through (sweep.RunGrid with Config.Cells against the whole-grid run),
## the panic containment at RunGrid's job boundary (a panicking job
## fails its grid and its sweepd job, stores nothing, and the service
## runs on), and the parallel UnmarshalCells every client result goes
## through against the sequential Scanner reader.
test-svc:
	$(GO) test -race -short ./internal/store/ ./internal/sweepsvc/ ./cmd/sweepd/
	$(GO) test -race -short -run 'RunGridCells|RunGridPanic|UnmarshalCellsParity' ./internal/sweep/
	$(GO) test -race -short -run 'SweepClient|SweepRequest' .

## test-chaos: seconds-long short-mode race pass over the fault paths
## (docs/faults.md) — the journal and cell store's torn-tail truncation,
## mid-file corruption and checksum failures, the store's fixed-frame
## reads against the encoding/json decode on damaged and hand-written
## records (plus the seed corpora of FuzzStoreOpen, whose off-frame
## records every read must decode, and FuzzJournalOpen), the sweepd job
## journal's recovery across restarts, and cmd/sweep -checkpoint
## resuming from the cell store with output byte-identical to a cold
## run.
test-chaos:
	$(GO) test -race -short -run 'TornTail|Corruption|Checksum|StoreFrame|StoreOpen|Journal|Restart|Checkpoint' \
		./internal/store/ ./internal/sweepsvc/ ./cmd/sweepd/ ./cmd/sweep/

## test-scenarios: seconds-long short-mode race pass over the scenario
## layer (docs/scenarios.md) — the stochastic delay policies' delivery
## window and recipient-invariance properties, the partition heal, churn
## selection and weighted mining (incl. the all-ones ≡ unweighted
## identity and the FastForward disarm), the scenario golden traces
## (with the ignored shard counts and with consistency checkers attached),
## the interchange and scenario-spec fuzz seed corpora, and the xval theory
## cross-checks (every scenario must sit on the correct side of the
## paper's bounds near c*). Every
## stochastic check prints its seed in the failure message, so a red
## run replays exactly.
test-scenarios:
	$(GO) test -race -short -run 'Scenario|Churn|Weighted|Partition|Bursty|CrossCheck|Threshold|Compile|SkewedWeights|ParseRoundTrip|ValidateRejects|Fuzz' \
		./internal/network/ ./internal/engine/ ./internal/scenario/... ./internal/sweep/ .

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
## rounds; fast-forward arms, as on every run) with arena compaction
## and a bounded checker retention window: the run mines ~10⁴ blocks
## but the arena stays ~10³ live, and heap_peak_bytes/live_blocks land
## in the entry (the pr7-mem-n1e6 configuration). Same append-only
## label discipline as bench; ~1 min.
bench-mem:
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_engine.json \
		-n 1000000 -p 1e-7 -delta 10 -nu 0.3 -rounds 100000 -iters 3 \
		-compact-every 2000 -checker-retention 4
