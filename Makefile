# Developer/CI entry points. `make ci` is the gate: formatting, vet, build,
# the full test suite, the race detector over the concurrent campaign
# engine, the binary smoke tests, the campaign-service smoke (HTTP
# submit, dedup and store-hit paths), a vet and test pass over the
# perfbench benchmark module, a short fuzz pass over the AMPoM
# prefetcher, the trace combinators, the scenario spec codec, whole
# failure scripts, the event queue and the gossip cell table, one
# bench-balance iteration so policy-dispatch overhead is tracked, one
# bench-analyze iteration of the per-fault AMPoM analysis and the
# scenario's prefetch census, and one bench-fabric iteration asserting
# the 512-, 4096- and 16384-node presets' event budgets.

GO ?= go

.PHONY: ci fmt-check vet build test race examples-smoke clusterd-smoke perfbench-smoke fuzz-smoke bench bench-campaign bench-scenario bench-balance bench-analyze bench-fabric bench-json profile

ci: fmt-check vet build test race examples-smoke clusterd-smoke perfbench-smoke fuzz-smoke bench-balance bench-analyze bench-fabric

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every binary under cmd/ and examples/ is built and run with a tiny
# configuration through its package's smoke tests.
examples-smoke:
	$(GO) test -count=1 ./cmd/... ./examples/...

# The campaign service end to end: submit over HTTP, byte-identical to
# the batch engine, dedup on resubmission, store hit across a server
# restart.
clusterd-smoke:
	$(GO) test -count=1 -run '^TestClusterdSmoke$$' ./internal/clusterd

# perfbench/ is a separate module (replace ampom => ../) that imports the
# internal packages, so the root build and test never compile it: vet and
# test it here, so a change to an exported symbol it uses fails CI rather
# than the benchmark.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Short fuzz passes over the AMPoM per-fault analysis, the trace
# combinator algebra, the scenario spec JSON codec, whole failure-script
# scenarios checked against the live-view rebuild, the event queue's
# differential model against container/heap, and the gossip daemon's flat
# cell table against the frozen map-based heard set (the full corpora
# live in the build cache; run with a longer -fuzztime to dig).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPrefetcherFault -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCompose -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSpecRoundTrip -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzFailureScript -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzQueueVsHeap -fuzztime 10s ./internal/eventq
	$(GO) test -run '^$$' -fuzz FuzzGossipTable -fuzztime 10s ./internal/infod

# BenchmarkCampaign compares a sequential full-matrix campaign against the
# worker pool (byte-identical output either way).
bench-campaign:
	$(GO) test -run '^$$' -bench BenchmarkCampaign -benchtime 2x .

# BenchmarkScenario runs the 64-node / 256-process preset end to end, so
# the perf trajectory captures cluster-scale numbers.
bench-scenario:
	$(GO) test -run '^$$' -bench '^BenchmarkScenario$$' -benchtime 2x .

# BenchmarkPolicySweep runs the 64-node preset under every registered
# balancer policy, so the dynamic-dispatch overhead of the open policy
# registry is tracked per PR.
bench-balance:
	$(GO) test -run '^$$' -bench '^BenchmarkPolicySweep$$' -benchtime 1x .

# BenchmarkAnalyze runs one fault's AMPoM analysis per fault pattern
# (sequential, strided, random) and BenchmarkPrefetchCensus one migrant's
# prefetch census per workload mix, so the cost and allocations of the
# analysis path are tracked per PR.
bench-analyze:
	$(GO) test -run '^$$' -bench '^Benchmark(Analyze|PrefetchCensus)$$' -benchmem -benchtime 1x ./internal/core ./internal/scenario

# BenchmarkFabric{512,512Failures,4096,16384,16384Shards} run the rack-farm
# (512n/2048p, failure-free and under the crash/evacuation/link-flap
# script), mega-farm (4096n/16384p) and giga-farm (16384n/65536p)
# presets on their two-tier switched fabrics with gossip dissemination —
# the giga-farm twice, sequentially and under the sharded event engine at
# one shard per rack — and FAIL if any policy's
# events-per-simulated-second exceeds the fixed budgets — the scale-out
# regression gates the incremental cluster view, the bounded partial-view
# gossip plane, the conservative shard scheduler and the failure plane are
# held to.
bench-fabric:
	$(GO) test -run '^$$' -bench '^BenchmarkFabric(512|512Failures|4096|16384|16384Shards)$$' -benchtime 1x -timeout 30m .

# bench-json runs the fabric gates three times each and records them
# machine-readably in BENCH_fabric.json (per benchmark: GOMAXPROCS, sample
# count, median and minimum ns/op, median events/sim-s and the other
# reported metrics, plus the host's core count and CPU), so the perf
# trajectory is diffable across PRs.
bench-json:
	$(GO) test -run '^$$' -bench '^BenchmarkFabric(512|512Failures|4096|16384|16384Shards)$$' -benchtime 1x -count 3 -timeout 60m . \
		| $(GO) run ./cmd/ampom-benchjson -o BENCH_fabric.json
	@cat BENCH_fabric.json

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# profile runs the rack-farm preset (trimmed to the CI policy trio) under
# the CPU and heap profilers, so a perf investigation starts from
# `go tool pprof cpu.prof` instead of guesswork. Swap -scenario/-shards to
# profile other presets or the sharded window machinery.
profile:
	$(GO) run ./cmd/ampom-cluster -scenario rack-farm \
		-policies no-migration,AMPoM,queue-gossip \
		-cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof; inspect with: $(GO) tool pprof cpu.prof"
