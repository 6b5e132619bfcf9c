# Development gate for the repository. `make check` is what CI should run.

GO ?= go

.PHONY: check vet build test chaos fuzz cover bench-overhead bench-obs bench-checkpoint bench bench-serve bench-resil bench-rollout bench-comm bench-kernels bench-data bench-search clean

check: vet build test chaos cover bench-overhead

# vet also fails on unformatted Go files. bench/ is the benchmark's own
# module with its own gate; .bench_build/ is its build output.
vet:
	$(GO) vet ./...
	@unformatted="$$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs gofmt -l)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Deterministic chaos suite under the race detector: failure-injection
# schedules (internal/fault), checkpoint/resume bitwise-continue
# (internal/nn), elastic worker-kill recovery (internal/parallel), campaign
# retry/backoff/quarantine and the sharded multi-tenant fleet scheduler
# under scripted shard kills, gray degradation, preemption and work
# stealing (internal/core Fleet*), and the gray-failure suites —
# degraded-replica ejection, hedged execution, retry budgets
# and replica kills mid-canary-promotion (internal/serve), flaky-link
# collectives and CRC framing (internal/comm),
# and overlapped bucketed allreduce under worker kills and flaky links
# (internal/parallel Chaos*, internal/comm Bucket*), and the streaming data
# plane under decode-worker kills and silently corrupted staged shards
# (internal/data Chaos*).
# Redundant with `test` on a full run, but kept as an explicit gate so the
# fault paths can be exercised alone (`make chaos`) and stay race-clean.
chaos:
	$(GO) test -race ./internal/fault ./internal/core \
		-run 'Fault|Campaign|Schedule|Attempt|Plan|Daly|Simulate|Gray|Link|Backoff|Quarantine|Poison|Fleet|Steal|Preempt|Tenant'
	$(GO) test -race ./internal/nn -run 'Resume|TrainState|Checkpoint'
	$(GO) test -race ./internal/parallel -run 'Elastic|Chaos|Overlapped|Bucket'
	$(GO) test -race ./internal/serve -run 'Chaos|Fault|Gray|Retry|Hedge'
	$(GO) test -race ./internal/comm -run 'Flaky|Frame|Watchdog|Timeout|Bucket'
	$(GO) test -race ./internal/data -run 'Chaos|Kill|Corrupt'

# Regenerate the committed gray-failure resilience artifact
# (BENCH_resil.json): the hedging frontier under a 10x degraded replica.
# Deterministic like bench-serve; TestCommittedResilArtifactIsCurrent fails
# if the committed copy drifts.
bench-resil:
	$(GO) run ./cmd/candleserve -resil -json BENCH_resil.json

# Regenerate the committed self-healing control-plane artifact
# (BENCH_rollout.json): shadow catch, bounded canary rollback, clean
# promotion, and the flash-crowd autoscaling comparison. Deterministic like
# bench-serve; TestCommittedRolloutArtifactIsCurrent fails if the committed
# copy drifts.
bench-rollout:
	$(GO) run ./cmd/candleserve -rollout -json BENCH_rollout.json

# Fuzz the tensor GEMM kernels against the naive references in
# internal/tensor/ref_test.go, and the float32 backend registry against the
# flat float32 reference (every registered backend per input). Short budgets
# per target: the seed corpus already pins the block/panel boundaries, so CI
# just buys a little exploration.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMatMul$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulTransA$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulTransB$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzConv$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulF32$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzConvF32$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzCommFrame$$' -fuzztime $(FUZZTIME) ./internal/comm
	$(GO) test -run '^$$' -fuzz '^FuzzCompressRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/lowp
	$(GO) test -run '^$$' -fuzz '^FuzzShardManifest$$' -fuzztime $(FUZZTIME) ./internal/data
	$(GO) test -run '^$$' -fuzz '^FuzzSLOSpec$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzArchDSL$$' -fuzztime $(FUZZTIME) ./internal/hpo

# Coverage gate: per-package floors (70% for serve, tensor, nn, fault, comm,
# parallel, lowp, data, storage, core, hpo) with a coverage-vs-floor delta
# table. See scripts/cover.sh.
cover:
	bash scripts/cover.sh

# Instrumentation overhead: trains the same network with no obs session,
# a disabled one, and an enabled one. The disabled column must stay within
# a few percent of the uninstrumented baseline (see BENCH_obs.json).
bench-overhead:
	$(GO) test ./internal/obs -run xxx -bench Overhead -benchtime 2s

# Full instrumentation-overhead sweep behind BENCH_obs.json: the training
# benchmark above plus the serving-path one (request-scoped tracing call
# sites: trace minting at admission, histogram exemplars on completion,
# flight events on shed), 5 samples each. Paste the medians into
# BENCH_obs.json; the disabled column must stay <=2% off the nil baseline.
bench-obs:
	$(GO) test ./internal/obs -run xxx -bench Overhead -benchtime 2s -count 5

# Checkpoint overhead: the same training run with checkpointing off, every
# epoch, and every other epoch (see BENCH_fault.json).
bench-checkpoint:
	$(GO) test ./internal/nn -run xxx -bench Checkpoint -benchtime 2s

# Regenerate the committed gradient-communication profile (BENCH_comm.json):
# the modelled step-time frontier for bucketed overlapped allreduce and
# error-feedback compression. Pure machine-model output, so byte-stable;
# TestCommittedCommArtifactIsCurrent fails if the committed copy drifts.
bench-comm:
	$(GO) run ./cmd/candlebench -comm BENCH_comm.json

# Regenerate the committed serving load-test artifact (BENCH_serve.json).
# The simulator is deterministic, so this only changes when the serving
# policy or the load profile does; TestCommittedBenchArtifactIsCurrent
# fails if the committed copy drifts.
bench-serve:
	$(GO) run ./cmd/candleserve -bench -json BENCH_serve.json

# Regenerate the committed float32 kernel-engine profile
# (BENCH_kernels.json): GFLOP/s per registered backend and the ComputeF32
# training uplift, measured on this host. Wall-clock numbers, so the
# artifact test asserts the committed headline invariants (packed f32 >= 2x
# f64 blocked at 512³, train speedup > 1) and schema currency, not bytes.
bench-kernels:
	$(GO) run ./cmd/candlebench -kernels BENCH_kernels.json

# Regenerate the committed tiered-staging data-plane profile
# (BENCH_data.json): E7's NVRAM crossover re-derived by executing the sharded
# streaming loader on its virtual clock. Deterministic, so byte-stable;
# TestCommittedDataArtifactIsCurrent fails if the committed copy drifts.
bench-data:
	$(GO) run ./cmd/candlebench -data BENCH_data.json

# Regenerate the committed search-at-scale profile (BENCH_search.json):
# delivered eval throughput of the sharded multi-tenant fleet under shard
# kills and gray faults at 1k-100k modelled nodes, and the random/RL/PBT
# search-quality comparison at the eval budget each scale delivers.
# Virtual-clock plus analytic landscape, so byte-stable;
# TestCommittedSearchArtifactIsCurrent fails if the committed copy drifts.
bench-search:
	$(GO) run ./cmd/candlebench -search BENCH_search.json

# Regenerate every experiment table + micro-benchmarks.
bench:
	$(GO) test -bench . -benchmem

clean:
	$(GO) clean ./...
