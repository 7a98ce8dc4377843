# Build / CI entry points. `make tier1` is the gate every PR must keep
# green; `make race` runs the engine-bearing packages under the race
# detector (the concurrent MSM engine lives in internal/core).

GO ?= go

# Perf-regression harness: `make bench` runs the op-level
# microbenchmarks (bigint kernels, field, curve) plus the end-to-end
# BenchmarkReal* suite, and renders the results as BENCH_pr3.json with
# before/after columns joined from the checked-in baseline
# (bench/baseline_pr3.json, captured on the pre-unrolled-kernel tree).
BENCH_BASELINE ?= bench/baseline_pr3.json
BENCH_OUT      ?= BENCH_pr3.json
BENCH_RAW      ?= bench_raw.txt

.PHONY: all tier1 build vet test race lint bench bench-smoke batch-smoke pipeline-smoke fuzz-smoke service-smoke cluster-smoke outsource-smoke outsource-bench loadgen-smoke loadgen-bench examples

all: tier1

tier1: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Static analysis: vet and the context-first guard always, staticcheck
# when the binary is on PATH (CI installs it; local trees without it
# still get the vet + ctxlint pass). ctxlint rejects new in-repo calls
# to the deprecated ctx-less wrappers (see cmd/ctxlint).
lint: vet
	$(GO) run ./cmd/ctxlint .
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./internal/core ./internal/msm ./internal/bigint ./internal/field ./internal/curve ./internal/service ./internal/cluster ./internal/groth16 ./internal/ntt ./internal/telemetry ./internal/outsource

bench:
	@rm -f $(BENCH_RAW)
	$(GO) test -bench=BenchmarkUnrolled -benchmem -run=^$$ ./internal/bigint | tee -a $(BENCH_RAW)
	$(GO) test -bench='BenchmarkField(Mul|Ops)' -benchmem -run=^$$ ./internal/field | tee -a $(BENCH_RAW)
	$(GO) test -bench='BenchmarkPACC|BenchmarkPADD' -benchmem -run=^$$ ./internal/curve | tee -a $(BENCH_RAW)
	$(GO) test -bench='BenchmarkReal' -benchmem -run=^$$ -timeout 60m . | tee -a $(BENCH_RAW)
	$(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -out $(BENCH_OUT) < $(BENCH_RAW)
	@echo wrote $(BENCH_OUT)

# One iteration of every microbenchmark: catches benchmarks that crash
# or allocate unexpectedly without paying the full measurement cost (CI).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./internal/bigint ./internal/field ./internal/curve

# Batch-throughput smoke: one small cached-vs-recompute batch cycle
# through SubmitBatch. Fails if any job fails or the cached run did not
# actually prove from the per-circuit base cache; the 1.5x amortized
# speedup floor is only enforced on the full `go run ./cmd/batchbench`
# (small smoke sizes are too noisy to gate on).
batch-smoke:
	$(GO) run ./cmd/batchbench -smoke

# Pipeline-speedup smoke: one small phase-DAG prove vs the sequential
# schedule on 8 simulated GPUs. Fails unless the proofs are
# byte-identical, the quotient span overlaps a witness-MSM span, and the
# pipelined modeled wall-clock beats sequential; the 25% reduction floor
# at 2^14+ domains is enforced by the full `go run ./cmd/pipelinebench`.
pipeline-smoke:
	$(GO) run ./cmd/pipelinebench -smoke

# Short differential-fuzz pass over the unrolled Montgomery kernels,
# the service's wire-format parser, the /v1/msm shard evaluation
# (engine + resident tables vs the double-and-add reference) and the
# proof/VK decoders.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzMul4Parity -fuzztime=10s ./internal/bigint
	$(GO) test -run=^$$ -fuzz=FuzzMul6Parity -fuzztime=10s ./internal/bigint
	$(GO) test -run=^$$ -fuzz=FuzzJobRequest -fuzztime=10s ./internal/service
	$(GO) test -run=^$$ -fuzz=FuzzBatchRequest -fuzztime=10s ./internal/service
	$(GO) test -run=^$$ -fuzz=FuzzMSMShardParity -fuzztime=10s ./internal/service
	$(GO) test -run=^$$ -fuzz=FuzzProofRoundTrip -fuzztime=10s ./internal/groth16
	$(GO) test -run=^$$ -fuzz=FuzzClusterWire -fuzztime=10s ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzOutsourceWire -fuzztime=10s ./internal/cluster

# End-to-end smoke of the proving service: submit jobs through the full
# lifecycle (admission, proving on the simulated GPUs, verification,
# drain) and exit non-zero on any failure.
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

# Full tail-latency benchmark matrix: steady load at two rates (with
# and without injected GPU faults) plus the adversarial mix under FIFO
# and under EDF+quota+shed. Writes BENCH_pr9.json and fails unless the
# hardened policy cuts the trickle circuit's p999 by >= 2x vs FIFO.
loadgen-bench:
	$(GO) run ./cmd/loadgen -bench -out BENCH_pr9.json

# Cluster failover smoke: a coordinator with two in-process worker
# nodes over real loopback HTTP, one worker killed mid-batch (no
# deregister — its lease must expire). Exits non-zero unless every job
# completes with a verified proof AND the lost-node/redispatch path
# actually ran.
cluster-smoke:
	$(GO) run ./cmd/coordinator -smoke 8

# Verifiable-outsourcing smoke: coordinator + two loopback workers over
# real HTTP, one lying on every MSM shard (valid-but-wrong claims only
# the constant-size check can catch). Exits non-zero unless every
# result is byte-identical to the serial reference AND at least one
# rejection actually fired.
outsource-smoke:
	$(GO) run ./cmd/coordinator -msm-smoke 4
	$(GO) run ./cmd/outsourcebench -smoke

# Full check-vs-recompute benchmark: constant-size acceptance at
# 2^12..2^16 against full MSM recomputation. Writes BENCH_pr10.json and
# fails unless the check is flat across sizes while recompute grows.
outsource-bench:
	$(GO) run ./cmd/outsourcebench -sizes 4096,16384,65536 -out BENCH_pr10.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scaling
	$(GO) run ./examples/zkproof
	$(GO) run ./examples/kzgcommit
