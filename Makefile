# Build / CI entry points. `make tier1` is the gate every PR must keep
# green; `make race` runs the engine-bearing packages under the race
# detector (the concurrent MSM engine lives in internal/core; the GPU
# health registry that concurrent jobs share lives in internal/gpusim;
# the root package's SNARK.ProveContext runs its MSM phases concurrently).

GO ?= go

.PHONY: all tier1 build vet test race lint bench bench-smoke fuzz-smoke service-smoke cluster-smoke outsource-smoke loadgen-smoke examples

all: tier1

tier1: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Static analysis: gofmt and vet always, staticcheck when the binary is
# on PATH (CI installs it; local trees without it still get the vet
# pass). Any file gofmt would rewrite fails the target.
lint: vet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race . ./internal/core ./internal/msm ./internal/bigint ./internal/field ./internal/curve ./internal/pairing ./internal/service ./internal/cluster ./internal/groth16 ./internal/ntt ./internal/telemetry ./internal/outsource ./internal/gpusim

# The benchmark (cmd/bench, declared by BENCHMARK.json): ten seeded runs
# of all four workloads, appended as JSON lines to .bench_out/bench.jsonl.
# Compare two such files with `go run ./cmd/bench -compare a.jsonl b.jsonl`.
bench:
	@mkdir -p .bench_out
	for s in 1 2 3 4 5 6 7 8 9 10; do $(GO) run ./cmd/bench -seed $$s -out .bench_out/bench.jsonl || exit 1; done

# A twentieth-length benchmark run that still checks every output, plus
# one iteration of every microbenchmark: catches benchmarks that crash
# or allocate unexpectedly without paying the full measurement cost (CI).
bench-smoke:
	$(GO) run ./cmd/bench -smoke
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./internal/bigint ./internal/field ./internal/curve ./internal/pairing ./internal/ntt ./internal/groth16

# Short differential-fuzz pass over the unrolled Montgomery kernels,
# binary-GCD inversion (vs Fermat), the value-typed pairing tower (vs a
# math/big Fp2), the service's wire-format parser, the /v1/msm shard
# evaluation (engine + resident tables vs the double-and-add reference),
# the proof/VK decoders, Groth16 Verify (vs the Tate-pairing oracle) and
# the engine's shard challenge check (vs an exact per-bucket recompute).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzMul4Parity -fuzztime=10s ./internal/bigint
	$(GO) test -run=^$$ -fuzz=FuzzMul6Parity -fuzztime=10s ./internal/bigint
	$(GO) test -run=^$$ -fuzz=FuzzShardChallenge -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzInvParity -fuzztime=10s ./internal/field
	$(GO) test -run=^$$ -fuzz=FuzzTowerParity -fuzztime=10s ./internal/pairing
	$(GO) test -run=^$$ -fuzz=FuzzJobRequest -fuzztime=10s ./internal/service
	$(GO) test -run=^$$ -fuzz=FuzzBatchRequest -fuzztime=10s ./internal/service
	$(GO) test -run=^$$ -fuzz=FuzzMSMShardParity -fuzztime=10s ./internal/service
	$(GO) test -run=^$$ -fuzz=FuzzProofRoundTrip -fuzztime=10s ./internal/groth16
	$(GO) test -run=^$$ -fuzz=FuzzVerifyParity -fuzztime=10s ./internal/groth16
	$(GO) test -run=^$$ -fuzz=FuzzClusterWire -fuzztime=10s ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzOutsourceWire -fuzztime=10s ./internal/cluster

# End-to-end smoke of the proving service: submit jobs through the full
# lifecycle (admission, proving on the simulated GPUs, verification,
# drain) and exit non-zero on any failure, or unless every completed
# job ran its msm-Z phase under the phase-DAG schedule (a service
# quietly back on the sequential schedule fails here).
service-smoke:
	$(GO) run ./cmd/provd -gpus 4 -constraints 128 -smoke 6

# Tail-latency smoke: a miniature open-loop adversarial run (heavy
# flood + tight-deadline trickle + a deliberately doomed circuit)
# against an in-process service under EDF + quotas + shedding. Fails
# unless p999 was recorded, nothing failed unexpectedly, and the EDF
# reorder and shed paths actually fired — a refactor that silently
# disables either is a hard failure, not a quietly worse tail.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -smoke

# Cluster failover smoke: a coordinator with two in-process worker
# nodes over real loopback HTTP, one worker partitioned mid-batch while
# it owes a proof (no deregister; its in-flight requests are accepted
# and never answered, so only lease expiry can take them back). Exits
# non-zero unless every job completes with a verified proof, the
# crashed worker was marked lost (LostNodes >= 1) AND at least one
# in-flight job came back through the lost lease (LostJobsRecovered >= 1).
cluster-smoke:
	$(GO) run ./cmd/coordinator -smoke 8

# Verifiable-outsourcing smoke: coordinator + two loopback workers over
# real HTTP, one lying on every MSM shard (valid-but-wrong claims only
# the constant-size check can catch). Exits non-zero unless every
# result is byte-identical to the serial reference AND at least one
# rejection actually fired.
outsource-smoke:
	$(GO) run ./cmd/coordinator -msm-smoke 4

# Runs every example program (the only importers of internal/tensorcore,
# kzg and transcript).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scaling
	$(GO) run ./examples/zkproof
	$(GO) run ./examples/kzgcommit
	$(GO) run ./examples/tensorcore
