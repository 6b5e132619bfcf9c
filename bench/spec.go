package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression; per-layer metrics have
// none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Doc is the metric's one-line definition; README.md carries the same
	// in its tables.
	Doc string
}

// Each bound is the larger of 5% and three times the widest spread (quartile
// distance over median, ten seeds) seen on any workload on the reference
// host, and none but setup_s is above 10%. Two are tighter than the rule:
// latency_p99_ms spreads 2.2-4.4% and is capped at 10%, and slo_attainment,
// a share near 1, is held at 3%. See README, Bounds.
//
// An op is one optimizer step on the training workloads and one request on
// the serving workloads. Every end-to-end metric has one definition over
// ops, so each of the four workloads emits all of them: the driver asks
// every run for every metric, none may read 0 and a time may not read the
// same twice, so a metric cannot be left out of a workload or filled with a
// placeholder there.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.15, "median of the run's set-ups: data generation, data.Build, net construction, serve.New, warm-up; outside every timed region"},
	{"time_to_quality_s", "s", "lower", 0.08, "seconds from the first op until the workload's goal is met (train_dense: validation accuracy first at target, evaluation included; train_dp_stream: the epoch budget is done; serve_*: the goal count of correct replies has arrived)"},
	{"samples_per_s", "1/s", "higher", 0.05, "samples of successful ops per second of timed wall (a step carries its batch, a request one sample)"},
	{"throughput_rps", "1/s", "higher", 0.05, "successful ops per second of timed wall (serve_*: correct replies; serve_open: correct replies within the latency limit)"},
	{"latency_p50_ms", "ms", "lower", 0.05, "median op latency (step to step; closed loop submit to reply; open loop due to reply)"},
	{"latency_p99_ms", "ms", "lower", 0.10, "99th percentile of the same clock: the median over up to ten equal stretches of the run of each stretch's p99, so one host stall does not set it; with fewer than 1000 ops, the highest percentile that has ten samples beyond it"},
	{"slo_attainment", "share", "higher", 0.03, "share of ops attempted that succeeded, on serve_open within its latency limit too; the other workloads have no limit"},
	{"peak_rss_mb", "MB", "lower", 0.10, "VmHWM of the workload's process"},
	{"alloc_mb_per_kop", "MB", "lower", 0.05, "runtime.MemStats.TotalAlloc over the timed region per 1000 ops"},
}

// perLayer lists the traced run's metrics, grouped by the module they
// measure. A metric whose layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// tensor: the public GEMM entry points called alone (probe).
	{Name: "tensor.gemm_f64_nn_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "probe on train_dense: tensor.MatMul 64x1024x512"},
	{Name: "tensor.gemm_f64_transa_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "probe on train_dense: tensor.MatMulTransA, same shape (weight gradient)"},
	{Name: "tensor.gemm_f64_transb_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "probe on train_dense: tensor.MatMulTransB, same shape (input gradient)"},
	{Name: "tensor.gemm_f64_m4_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "probe on serve_*: tensor.MatMul 4x1024x512"},
	{Name: "tensor.gemm_f64_m16_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "probe on serve_*: tensor.MatMul 16x1024x512"},
	{Name: "tensor.gemm_f32_packed_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "probe on train_dense: packed f32 backend at 64x1024x512, which no hot path uses yet"},
	{Name: "tensor.gemm_allocs_per_op", Unit: "count", Better: "lower", Doc: "probe on train_dense: mallocs per tensor.MatMul call"},
	{Name: "tensor.host_peak_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "probe on train_dense: best of f64 and every f32 backend at 512^3; the roofline denominator"},

	// nn: the traced step loop on train_dense (loop) and inference probes.
	{Name: "nn.zero_grads_ms", Unit: "ms", Better: "lower", Doc: "loop: median self time of Net.ZeroGrads per step"},
	{Name: "nn.forward_ms", Unit: "ms", Better: "lower", Doc: "loop: Net.Forward(x, true)"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower", Doc: "loop: Loss.Loss plus Loss.Grad"},
	{Name: "nn.backward_ms", Unit: "ms", Better: "lower", Doc: "loop: Net.Backward"},
	{Name: "nn.optimizer_ms", Unit: "ms", Better: "lower", Doc: "loop: Optimizer.Step"},
	{Name: "nn.step_ms", Unit: "ms", Better: "lower", Doc: "loop: median duration of the whole traced step"},
	{Name: "nn.eval_ms", Unit: "ms", Better: "lower", Doc: "loop: EvaluateClassifier on the validation split, per epoch"},
	{Name: "nn.step_residual_frac", Unit: "share", Better: "lower", Doc: "(untraced nn.Train step time - sum of the pieces) / step time; the run fails above 0.10"},
	{Name: "nn.steps_to_quality", Unit: "count", Better: "lower", Doc: "optimizer steps until the target; repeats exactly while arithmetic is unchanged"},
	{Name: "nn.step_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "computed flops 6*params*batch over nn.step_ms"},
	{Name: "nn.step_roofline_frac", Unit: "share", Better: "higher", Doc: "nn.step_gflops / tensor.host_peak_gflops; 0 unless the run reached the target"},
	{Name: "nn.allocs_per_step", Unit: "count", Better: "lower", Doc: "loop: mallocs per step"},
	{Name: "nn.alloc_kb_per_step", Unit: "KB", Better: "lower", Doc: "loop: bytes allocated per step"},
	{Name: "nn.forward_infer_ms_b1", Unit: "ms", Better: "lower", Doc: "probe on serve_*: Net.Forward(x, false), batch 1"},
	{Name: "nn.forward_infer_ms_b4", Unit: "ms", Better: "lower", Doc: "probe on serve_*: batch 4"},
	{Name: "nn.forward_infer_ms_b16", Unit: "ms", Better: "lower", Doc: "probe on serve_*: batch 16"},
	{Name: "nn.clone_ms", Unit: "ms", Better: "lower", Doc: "probe on serve_*: Net.Clone, what serve.New pays per replica"},

	// data: the streaming loader under train_dp_stream.
	{Name: "data.next_wait_ms_per_step", Unit: "ms", Better: "lower", Doc: "wrap: time inside BatchIterator.Reset/Next per step, mean over ranks"},
	{Name: "data.wait_frac", Unit: "share", Better: "lower", Doc: "wrap: that time as a share of wall"},
	{Name: "data.dram_hit_frac", Unit: "share", Better: "higher", Doc: "result: Loader.History DRAM hits / shard fetches"},
	{Name: "data.nvram_hit_frac", Unit: "share", Better: "higher", Doc: "result: NVRAM hits / shard fetches"},
	{Name: "data.pfs_reads", Unit: "count", Better: "lower", Doc: "result: fetches served from the store; repeats exactly"},
	{Name: "data.restaged", Unit: "count", Better: "lower", Doc: "result: corrupted copies re-fetched; 0 without faults"},
	{Name: "data.drain_samples_per_s", Unit: "1/s", Better: "higher", Doc: "probe: one Loader drained alone, Prefetch 0"},
	{Name: "data.drain_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "probe: same, bytes computed from the manifest"},
	{Name: "data.allocs_per_batch", Unit: "count", Better: "lower", Doc: "probe: mallocs per batch drained"},
	{Name: "data.build_s", Unit: "s", Better: "lower", Doc: "data.Build over the generated dataset, from the last set-up"},

	// comm: allreduce called alone on a 2-rank world (probe), traffic (result).
	{Name: "comm.allreduce_ring_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "probe: Rank.AllReduce on 1M float64, buffer bytes / time"},
	{Name: "comm.allreduce_tree_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "probe: same, binomial tree"},
	{Name: "comm.allreduce_recdbl_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "probe: same, recursive doubling"},
	{Name: "comm.allreduce_rabenseifner_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "probe: same, Rabenseifner"},
	{Name: "comm.allreduce_ms_per_call", Unit: "ms", Better: "lower", Doc: "probe: ring allreduce at the workload's flat gradient length"},
	{Name: "comm.allocs_per_allreduce", Unit: "count", Better: "lower", Doc: "probe: mallocs per call, all ranks"},
	{Name: "comm.bytes_per_step", Unit: "B", Better: "lower", Doc: "result: DataParallelResult.BytesPerRank / steps; repeats exactly"},
	{Name: "comm.calls_per_step", Unit: "count", Better: "lower", Doc: "result: gradient buckets per step; repeats exactly"},

	// parallel: DataParallelResult fields and wrapped Loss/Optimizer.
	{Name: "parallel.comm_s", Unit: "s", Better: "lower", Doc: "result: CommSeconds"},
	{Name: "parallel.exposed_comm_s", Unit: "s", Better: "lower", Doc: "result: ExposedCommSeconds"},
	{Name: "parallel.overlap_frac", Unit: "share", Better: "higher", Doc: "result: OverlapFraction"},
	{Name: "parallel.busy_frac", Unit: "share", Better: "higher", Doc: "result: mean WorkerBusy / wall"},
	{Name: "parallel.busy_imbalance", Unit: "ratio", Better: "lower", Doc: "result: BusyImbalance"},
	{Name: "parallel.optimizer_ms_per_step", Unit: "ms", Better: "lower", Doc: "wrap: Optimizer.Step per step, mean over ranks"},
	{Name: "parallel.loss_ms_per_step", Unit: "ms", Better: "lower", Doc: "wrap: Loss.Loss plus Loss.Grad per step, mean over ranks"},
	{Name: "parallel.fwd_bwd_ms_per_step", Unit: "ms", Better: "lower", Doc: "busy minus data wait, loss and optimizer, per step"},
	{Name: "parallel.scaling_eff_2v1", Unit: "share", Better: "higher", Doc: "2-replica samples/s over twice a plain 1-replica run of the same task"},

	// serve: Result fields, Server.Stats and the generator's own clocks.
	{Name: "serve.mean_batch", Unit: "count", Better: "higher", Doc: "result: Stats.MeanBatch"},
	{Name: "serve.full_batch_frac", Unit: "share", Better: "higher", Doc: "result: share of replies that rode a MaxBatch-sized batch"},
	{Name: "serve.batches", Unit: "count", Better: "lower", Doc: "result: Stats.Batches over the traced segment"},
	{Name: "serve.shed_frac", Unit: "share", Better: "lower", Doc: "result: Stats.Shed / requests sent"},
	{Name: "serve.expired_frac", Unit: "share", Better: "lower", Doc: "result: Stats.Expired / requests sent"},
	{Name: "serve.server_latency_p50_ms", Unit: "ms", Better: "lower", Doc: "result: Result.Latency, the server's clock"},
	{Name: "serve.server_latency_p99_ms", Unit: "ms", Better: "lower", Doc: "result: same, 99th percentile"},
	{Name: "serve.latency_p999_ms", Unit: "ms", Better: "lower", Doc: "the end-to-end clock at 99.9%; not repeatable enough to gate"},
	{Name: "serve.wait_p50_ms", Unit: "ms", Better: "lower", Doc: "server latency minus the forward probe at the observed mean batch: admission + linger + queue"},
	{Name: "serve.forward_busy_frac", Unit: "share", Better: "lower", Doc: "batches x forward probe / wall: how busy the replica is"},
	{Name: "serve.submit_us", Unit: "us", Better: "lower", Doc: "median self time of the Server.Submit call"},
	{Name: "serve.allocs_per_request", Unit: "count", Better: "lower", Doc: "mallocs per request, whole process"},
	{Name: "serve.gen_late_p99_ms", Unit: "ms", Better: "lower", Doc: "how late after its due time a request was sent (open loop)"},
	{Name: "serve.gen_late_max_ms", Unit: "ms", Better: "lower", Doc: "same, maximum"},
	{Name: "serve.new_s", Unit: "s", Better: "lower", Doc: "serve.New from the last set-up"},
	{Name: "serve.ladder_p99_ms_r600", Unit: "ms", Better: "lower", Doc: "serve_open only: p99 of a short open-loop rung at 600 req/s"},
	{Name: "serve.ladder_p99_ms_r1200", Unit: "ms", Better: "lower", Doc: "rung at 1200 req/s"},
	{Name: "serve.ladder_p99_ms_r1800", Unit: "ms", Better: "lower", Doc: "rung at 1800 req/s"},
	{Name: "serve.ladder_p99_ms_r2400", Unit: "ms", Better: "lower", Doc: "rung at 2400 req/s"},
	{Name: "serve.max_rate_within_slo_rps", Unit: "1/s", Better: "higher", Doc: "highest rung whose p99 met the limit with nothing shed; flips by a whole rung, diagnostic only"},

	// The Go runtime beside the application, and what tracing costs.
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Doc: "collections during the traced segment"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Doc: "stop-the-world pause total during it"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Doc: "MemStats.HeapSys at the end of the run"},
	{Name: "trace.overhead_frac", Unit: "share", Better: "lower", Doc: "(traced - untraced) / untraced time per op (open loop: median latency), both measured in this run"},
}

// denseParams pins train_dense. The cohort, its train/validation split and
// the initial weights are workload constants (PoolSeed, InitSeed); the seed
// draws the order in which batches arrive. Measured on the reference host:
// with the seed also drawing the task and the weights, epochs-to-target
// varied 25-37% between seeds (quartile distance over median), with the
// seed drawing only split and order 10-23%, and with order alone all of ten
// seeds cross in the same epoch. Target sits in the widest gap of the
// validation curve (0.73 after epoch 7, 0.78 after epoch 8, both +-0.006
// over seeds), so a change must move accuracy by 2.5 points to move the
// crossing.
type denseParams struct {
	Samples, Genes, Classes, Informative int
	Separation, Noise                    float64
	PoolSeed, InitSeed                   uint64
	Hidden                               []int
	Batch                                int
	LR, Decay                            float64
	Target                               float64
	EpochCap, RefEpochs                  int
	// KernelProcs is what tensor.MaxProcs is set to while the training runs.
	// 1: the timed path stays on one core. With the kernels' default fan-out
	// the one GEMM of the step with more than one row block (MatMulTransA)
	// ran at the speed of two cores or of one for tens of minutes at a time
	// on the reference host, 82 against 94 ms per step, and no bound under
	// 15% held between two sets of the same code. The tensor probes keep the
	// default, so the fan-out still shows in tensor.gemm_f64_transa_gflops.
	KernelProcs int
	// ResidualLimit is the largest share of the nn.Train step the traced
	// loop's five pieces may leave unaccounted; smoke sizes switch it off,
	// their sub-millisecond steps are mostly loop overhead.
	ResidualLimit float64
}

// dpParams pins train_dp_stream. The seed draws the task, the split and the
// weights, so Floor must hold for any seed: at LR 1e-3 the loss spiked late
// in the run on 3 of 20 seeds, which ended at 0.71-0.79; at 3e-4 thirty
// seeds end at 0.82-0.90, and Floor sits well under that.
type dpParams struct {
	SetupReps                                        int
	Samples, ValSamples, Genes, Classes, Informative int
	Separation, Noise                                float64
	ShardSamples, RankBatch, Replicas                int
	Prefetch, Workers                                int
	DRAMDiv, NVRAMDiv                                int64
	Hidden                                           []int
	LR                                               float64
	BucketElems                                      int
	EpochsPerSecond                                  float64
	Floor                                            float64
	ProbeElems                                       int
}

// serveParams pins serve_saturate and serve_open, which share the server,
// the model shape and the inputs and differ in how load arrives.
type serveParams struct {
	Inputs, Genes, Classes int
	Hidden                 []int
	MaxBatch, QueueCap     int
	MaxLinger              time.Duration
	Window                 int           // closed loop: requests kept outstanding
	Rate                   float64       // open loop: Poisson arrivals per second
	Limit                  time.Duration // open loop: latency limit behind slo_attainment and throughput_rps
	// GoalPerSecond sizes the goal of time_to_quality_s, a count of correct
	// replies (a screening pipeline's "time to score N compounds"), per
	// second of run, below what either loop delivers in that time.
	GoalPerSecond float64
	Ladder        []float64 // open loop, traced run: rung rates
}

type params struct {
	// SetupReps is how many set-ups setup_s is the median of; the
	// data-parallel workload's set-up is seconds long and has its own count.
	SetupReps int
	Dense     denseParams
	DP        dpParams
	Saturate  serveParams
	Open      serveParams
}

func serveShape(quick bool) serveParams {
	p := serveParams{Inputs: 512, Genes: 1024, Classes: 4, Hidden: []int{512, 256},
		MaxBatch: 16, QueueCap: 256, MaxLinger: 2 * time.Millisecond}
	if quick {
		p.Inputs, p.Genes, p.Hidden = 64, 64, []int{32, 16}
	}
	return p
}

// constants returns the pinned workload sizes, or sub-second smoke sizes for
// tests. Numbers measured with quick sizes are never reported.
func constants(quick bool) params {
	p := params{SetupReps: 5}
	p.Dense = denseParams{Samples: 1600, Genes: 1024, Classes: 4, Informative: 20,
		Separation: 2.0, Noise: 1.2, PoolSeed: 77, InitSeed: 99, Hidden: []int{512, 256},
		Batch: 64, LR: 3e-5, Decay: 1e-4, Target: 0.76, EpochCap: 12, RefEpochs: 3,
		KernelProcs: 1, ResidualLimit: 0.10}
	p.DP = dpParams{SetupReps: 3, Samples: 4096, ValSamples: 512, Genes: 4096, Classes: 4, Informative: 20,
		Separation: 0.9, Noise: 1.2, ShardSamples: 128, RankBatch: 8, Replicas: 2,
		Prefetch: 1, Workers: 1, DRAMDiv: 8, NVRAMDiv: 1, Hidden: []int{16}, LR: 3e-4,
		BucketElems: 32768, EpochsPerSecond: 1.25, Floor: 0.70, ProbeElems: 1 << 20}
	p.Saturate = serveShape(quick)
	p.Saturate.Window, p.Saturate.GoalPerSecond = 32, 1000
	p.Open = serveShape(quick)
	p.Open.Rate, p.Open.Limit, p.Open.GoalPerSecond = 1200, 15*time.Millisecond, 600
	p.Open.Ladder = []float64{600, 1200, 1800, 2400}
	if quick {
		p.SetupReps, p.DP.SetupReps = 2, 2
		p.Dense.Samples, p.Dense.Genes, p.Dense.Hidden = 320, 64, []int{32, 16}
		p.Dense.LR, p.Dense.Target, p.Dense.EpochCap, p.Dense.RefEpochs = 1e-3, 0.5, 40, 2
		p.Dense.ResidualLimit = 1
		p.DP.Samples, p.DP.ValSamples, p.DP.Genes, p.DP.ShardSamples = 256, 64, 64, 32
		p.DP.Informative, p.DP.Separation, p.DP.BucketElems, p.DP.EpochsPerSecond = 16, 2.5, 256, 20
		p.DP.Floor, p.DP.ProbeElems = 0.4, 1<<12
		p.Open.Limit = time.Second
		p.Saturate.GoalPerSecond, p.Open.GoalPerSecond = 100, 100
	}
	return p
}

// constantsHash identifies the workload constants a number was measured
// with, so two outputs are compared only when their inputs were the same.
func constantsHash(quick bool) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", constants(quick))))
	return fmt.Sprintf("%x", sum[:6])
}

// workloadDef names a workload, records why it was chosen, and runs it.
type workloadDef struct {
	Name string
	Why  string
	run  func(c runConfig, m *meter) error
}

var workloads = []workloadDef{
	{"train_dense", "time-to-train of an NT3/P1B1-shaped MLP, in memory, one process, kernels on one core: tensor GEMM and nn forward/backward do nearly all the work; data, comm, parallel and serve do none", runTrainDense},
	{"train_dp_stream", "the strong-scaling corner: 2 replicas, per-rank batch 8, 4096-wide input streamed from shards, so shard decode (data) and gradient allreduce (comm, parallel) weigh most and GEMM least", runTrainDP},
	{"serve_saturate", "live serve.Server driven closed-loop with 32 requests outstanding: batches fill by MaxBatch and the replica's small-batch forward pass is the bottleneck", runServeSaturate},
	{"serve_open", "the same server under an open-loop Poisson schedule at about half the saturation rate: batches flush by linger, latency is linger plus queueing and forward is a small share", runServeOpen},
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds on every run.
const runSeconds = 30

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads and the names the program emits cannot drift apart
// (bench_test.go compares the committed file with this).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
