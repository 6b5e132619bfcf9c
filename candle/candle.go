// Package candle is the public API of the repository: a deep-learning-for-
// biomedicine workload suite and the HPC substrates it runs on, reproducing
// "Deep Learning in Cancer and Infectious Disease: Novel Driver Problems
// for Future HPC Architecture" (Stevens, HPDC 2017).
//
// The package re-exports the stable surface of the internal packages:
//
//   - the six biomedical driver problems (Workloads) with deterministic
//     synthetic data generators, reference models, and HPO objectives;
//   - the neural-network stack (layers, losses, optimizers, Train);
//   - reduced-precision emulation (fp32/bf16/fp16/int8, loss scaling);
//   - parallel training regimes: data-parallel SGD over MPI-style
//     collectives, model-parallel pipelines, and the data x model hybrid;
//   - hyperparameter search: grid/random baselines and the intelligent
//     strategies (Hyperband, genetic, TPE, RBF surrogate, generative);
//   - the parameterised machine model (rooflines, collective costs,
//     energy) and the tiered-storage/NVRAM staging simulator;
//   - the inference serving subsystem (dynamic micro-batching, replica
//     pool, admission control) and its deterministic load simulator;
//   - the E1-E17 experiment suite that reproduces each of the paper's
//     architectural claims.
//
// Quick start:
//
//	w, _ := candle.WorkloadByName("tumor")
//	train, test := w.Generate(candle.Small, candle.NewRNG(1))
//	net := w.NewModel(w.DefaultConfig(), train.Dim(), train.OutDim(), candle.NewRNG(2))
//	candle.Train(net, train.X, train.Y, candle.TrainConfig{
//		Loss: candle.SoftmaxCELoss{}, Optimizer: candle.NewAdam(0.003),
//		BatchSize: 32, Epochs: 20,
//	})
//	fmt.Println(candle.EvaluateClassifier(net, test.X, test.Labels))
package candle

import (
	"repro/internal/biodata"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/hpo"
	"repro/internal/lowp"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// ---- randomness ----------------------------------------------------------

// RNG is a deterministic, splittable random stream.
type RNG = rng.Stream

// NewRNG returns a stream seeded with the given value.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// ---- tensors and networks --------------------------------------------------

// Tensor is a dense row-major float64 array.
type Tensor = tensor.Tensor

// NewTensor allocates a zero tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// F32 is a dense row-major float32 array, the storage type of the kernel
// backends (see internal/tensor's README for the registry and the
// precision contract).
type F32 = tensor.F32

// NewF32 allocates a zero float32 tensor with the given shape.
func NewF32(shape ...int) *F32 { return tensor.NewF32(shape...) }

// Float32 kernel backend registry: backends are selected by name and pinned
// process-wide; KernelBackends lists what is registered ("naive", "blocked",
// "packed").
var (
	KernelBackends   = tensor.BackendNames
	SetKernelBackend = tensor.SetBackend
)

// Net is an ordered layer stack trained end to end.
type Net = nn.Net

// Layer is one differentiable network stage.
type Layer = nn.Layer

// TrainConfig configures single-process training.
type TrainConfig = nn.TrainConfig

// TrainResult reports a training run.
type TrainResult = nn.TrainResult

// Losses.
type (
	// MSELoss is mean squared error.
	MSELoss = nn.MSELoss
	// MAELoss is mean absolute error.
	MAELoss = nn.MAELoss
	// SoftmaxCELoss is fused softmax cross-entropy over logits.
	SoftmaxCELoss = nn.SoftmaxCELoss
	// BCELoss is binary cross-entropy over a single logit.
	BCELoss = nn.BCELoss
)

// MLP constructs a dense network (see nn.MLP).
var MLP = nn.MLP

// NewDense, activations, and friends.
var (
	NewDense      = nn.NewDense
	NewActivation = nn.NewActivation
	NewDropout    = nn.NewDropout
	NewBatchNorm  = nn.NewBatchNorm
	NewLayerNorm  = nn.NewLayerNorm
	NewConv1D     = nn.NewConv1D
	NewMaxPool1D  = nn.NewMaxPool1D
	NewNet        = nn.NewNet
	OneHot        = nn.OneHot
)

// Activation kinds.
const (
	ReLU      = nn.ReLU
	LeakyReLU = nn.LeakyReLU
	Sigmoid   = nn.Sigmoid
	Tanh      = nn.Tanh
	GELU      = nn.GELU
)

// Optimizers.
var (
	NewSGD      = nn.NewSGD
	NewMomentum = nn.NewMomentum
	NewAdam     = nn.NewAdam
	NewAdamW    = nn.NewAdamW
	NewRMSProp  = nn.NewRMSProp
)

// Optimizer applies parameter updates.
type Optimizer = nn.Optimizer

// Train runs mini-batch training (see nn.Train).
var Train = nn.Train

// Evaluation helpers.
var (
	EvaluateClassifier = nn.EvaluateClassifier
	EvaluateRegression = nn.EvaluateRegression
)

// ---- precision --------------------------------------------------------------

// Precision is an emulated numeric format.
type Precision = lowp.Precision

// Supported precisions.
const (
	FP64 = lowp.FP64
	FP32 = lowp.FP32
	BF16 = lowp.BF16
	FP16 = lowp.FP16
	INT8 = lowp.INT8
)

// ---- driver problems ---------------------------------------------------------

// Workload is one biomedical driver problem.
type Workload = core.Workload

// Dataset is a generated problem instance.
type Dataset = biodata.Dataset

// Scale selects dataset sizing.
type Scale = core.Scale

// Dataset scales.
const (
	Tiny  = core.Tiny
	Small = core.Small
	Full  = core.Full
)

// Workloads returns the six driver problems.
var Workloads = core.Workloads

// WorkloadByName looks a workload up by name.
var WorkloadByName = core.ByName

// ---- hyperparameter search ----------------------------------------------------

// SearchSpace is a typed hyperparameter space.
type SearchSpace = hpo.Space

// SearchConfig is a concrete hyperparameter assignment.
type SearchConfig = hpo.Config

// SearchOptions configures a search run.
type SearchOptions = hpo.Options

// SearchResult reports a search run.
type SearchResult = hpo.Result

// SearchStrategy is a search algorithm.
type SearchStrategy = hpo.Strategy

// Search strategies.
type (
	// RandomSearch is the naive uniform baseline.
	RandomSearch = hpo.RandomSearch
	// GridSearch is the naive grid baseline.
	GridSearch = hpo.GridSearch
	// Hyperband allocates budget adaptively with successive halving.
	Hyperband = hpo.Hyperband
	// Genetic evolves a population of configurations.
	Genetic = hpo.Genetic
	// TPE is tree-structured-Parzen-estimator-style density search.
	TPE = hpo.TPE
	// Surrogate is RBF-surrogate-guided search.
	Surrogate = hpo.Surrogate
	// Generative samples candidates from a learned generative model of
	// the elite region — the paper's generative-search stand-in.
	Generative = hpo.Generative
)

// AllStrategies returns one of each strategy with defaults.
var AllStrategies = hpo.AllStrategies

// Learning searchers over the architecture DSL.
type (
	// RLController is a policy-gradient (REINFORCE) controller: seeded
	// categorical policies per decision, updated from eval rewards.
	RLController = hpo.RLController
	// PBT is population-based training: exploit/explore with checkpoint
	// inheritance through a TrainableObjective.
	PBT = hpo.PBT
	// TrainableObjective carries training state (an encoded nn.TrainState)
	// across PBT rounds so exploited members resume training.
	TrainableObjective = hpo.TrainableObjective
)

// LearningStrategies returns the learning searchers with defaults; they are
// kept out of AllStrategies so classic-strategy artifacts stay stable.
var LearningStrategies = hpo.LearningStrategies

// StrategyByName resolves any built-in or learning strategy by name.
var StrategyByName = hpo.StrategyByName

// Architecture DSL: slash-separated "units:act[:dropout]" layers, the
// vocabulary the learning searchers explore.
type (
	// Arch is a parsed architecture.
	Arch = hpo.Arch
	// ArchLayer is one hidden layer of the DSL.
	ArchLayer = hpo.ArchLayer
)

// Architecture DSL helpers.
var (
	// ParseArch parses and validates the DSL form.
	ParseArch = hpo.ParseArch
	// ArchSpace returns the DSL as a search space of categorical decisions.
	ArchSpace = hpo.ArchSpace
	// ArchFromConfig decodes an ArchSpace configuration.
	ArchFromConfig = hpo.ArchFromConfig
	// ConfigFromArch encodes an architecture as an ArchSpace configuration.
	ConfigFromArch = hpo.ConfigFromArch
)

// ---- campaign fleet ---------------------------------------------------------

// CampaignConfig configures a single-tenant search campaign on the modelled
// machine (see RunCampaign).
type CampaignConfig = core.CampaignConfig

// CampaignResult reports a campaign run.
type CampaignResult = core.CampaignResult

// RunCampaign simulates one search campaign on the modelled machine.
var RunCampaign = core.RunCampaign

// FleetConfig configures the sharded multi-tenant fleet scheduler:
// concurrent campaigns with fair-share weights, priority preemption, and
// work stealing across modelled node shards (see RunFleet).
type FleetConfig = core.FleetConfig

// TenantConfig is one campaign tenant submitted to the fleet.
type TenantConfig = core.TenantConfig

// FleetResult reports a fleet run with per-tenant and per-shard stats.
type FleetResult = core.FleetResult

// RunFleet simulates concurrent campaigns on the sharded fleet.
var RunFleet = core.RunFleet

// ShardPlan scripts deterministic shard outages, gray degradation, and
// repairs for the fleet scheduler (see FleetConfig.Faults).
type ShardPlan = fault.ShardPlan

// RandomShardPlan draws a seeded shard fault plan.
var RandomShardPlan = fault.RandomShardPlan

// ---- parallel training -----------------------------------------------------------

// DataParallelConfig configures synchronous data-parallel SGD.
type DataParallelConfig = parallel.DataParallelConfig

// PipelineConfig configures model-parallel pipeline training.
type PipelineConfig = parallel.PipelineConfig

// HybridConfig configures data x model hybrid training.
type HybridConfig = parallel.HybridConfig

// ElasticConfig configures elastic data-parallel SGD: synchronous training
// that survives worker deaths by re-sharding the batch over survivors.
type ElasticConfig = parallel.ElasticConfig

// Parallel trainers.
var (
	TrainDataParallel = parallel.TrainDataParallel
	TrainPipeline     = parallel.TrainPipeline
	TrainHybrid       = parallel.TrainHybrid
	TrainElastic      = parallel.TrainElastic
)

// Allreduce algorithms for gradient reduction.
const (
	ARRing              = comm.ARRing
	ARRecursiveDoubling = comm.ARRecursiveDoubling
	ARTree              = comm.ARTree
	ARRabenseifner      = comm.ARRabenseifner
)

// BucketReducer runs bucketed collectives asynchronously on a per-rank comm
// goroutine so gradient communication overlaps backward compute
// (see DataParallelConfig.BucketElems / Overlap).
type BucketReducer = comm.BucketReducer

// BucketHandle is the per-bucket completion handle a BucketReducer returns.
type BucketHandle = comm.BucketHandle

// CompressKind selects the gradient wire encoding for bucketed allreduce.
type CompressKind = lowp.CompressKind

// Gradient compression schemes (see DataParallelConfig.Compress).
const (
	CompressNone = lowp.CompressNone
	CompressTopK = lowp.CompressTopK
	CompressInt8 = lowp.CompressInt8
)

// GradCompressor is the error-feedback gradient codec: what a compressed
// bucket drops this step is carried in a residual and re-injected next step,
// conserving gradient mass exactly.
type GradCompressor = lowp.GradCompressor

// NewGradCompressor returns an error-feedback compressor of the given kind.
var NewGradCompressor = lowp.NewGradCompressor

// ---- fault tolerance --------------------------------------------------------------

// FaultPlan scripts deterministic worker kills, stalls, and transient
// collective errors for the trainers (see ElasticConfig.Faults).
type FaultPlan = fault.Plan

// FaultProcess describes independent per-node failure processes
// (see the campaign scheduler's Faults field).
type FaultProcess = fault.Process

// NewFaultPlan returns an empty failure plan.
var NewFaultPlan = fault.NewPlan

// DalyInterval is the first-order optimal checkpoint interval
// sqrt(2*C*MTBF) - C that experiment E10 sweeps.
var DalyInterval = fault.DalyInterval

// LinkFault describes seeded gray-failure rates for a communication link:
// message drop, duplication, corruption, and delay
// (see CommWorld.SetLinkFaults).
type LinkFault = fault.LinkFault

// CommWorld is a simulated communicator over in-process ranks; with
// SetLinkFaults its point-to-point links become a lossy fabric that the
// CRC-framed transport survives, with retransmit overhead in CommStats.
type CommWorld = comm.World

// NewCommWorld creates a communicator of the given size.
var NewCommWorld = comm.NewWorld

// CommStats reports per-rank traffic and fault-recovery counters.
type CommStats = comm.Stats

// ---- machine model and storage -----------------------------------------------------

// Machine is a parameterised cluster model.
type Machine = machine.Machine

// Machine presets.
var (
	MachineCPU2017   = machine.CPU2017
	MachineGPU2017   = machine.GPU2017
	MachineFutureDNN = machine.FutureDNN
)

// StoragePolicy is a training-data staging strategy.
type StoragePolicy = storage.Policy

// StorageConfig describes a run's data demands.
type StorageConfig = storage.Config

// SimulateStorage runs the staging timeline simulator.
var SimulateStorage = storage.Simulate

// ---- streaming data plane ----------------------------------------------------

// ShardManifest names, sizes, and checksums the shards of a dataset
// (see internal/data's README for the wire format and tier semantics).
type ShardManifest = data.Manifest

// Shard is one named, checksummed sample range of a manifest.
type Shard = data.Shard

// ShardStore holds the authoritative (PFS-resident) shard payloads.
type ShardStore = data.Store

// BuildShards tiles a dataset into a manifest plus its payload store.
var BuildShards = data.Build

// ShardBuildOptions sizes the shards and their logical bytes.
type ShardBuildOptions = data.BuildOptions

// DecodeShardManifest decodes a CRC-framed manifest (never panics on
// arbitrary bytes; see FuzzShardManifest).
var DecodeShardManifest = data.DecodeManifest

// Loader streams seed-deterministic training batches from a shard store
// through tiered DRAM/NVRAM caches with prefetch, pricing every read on a
// virtual clock. It plugs into TrainConfig.Data.
type Loader = data.Loader

// LoaderConfig configures a streaming loader.
type LoaderConfig = data.LoaderConfig

// NewLoader builds a loader over every shard of a manifest.
var NewLoader = data.NewLoader

// LoaderEpochStats is the virtual-clock account of one consumed epoch.
type LoaderEpochStats = data.EpochStats

// TierSpec prices loader reads against a DRAM/NVRAM/PFS hierarchy.
type TierSpec = data.TierSpec

// TiersFromNode extracts a TierSpec from a machine node, derating the PFS
// by the number of nodes sharing it.
var TiersFromNode = data.TiersFromNode

// ShardPartition assigns disjoint shard subsets to data-parallel ranks; it
// plugs into DataParallelConfig.Data.
type ShardPartition = data.Partition

// NewShardPartition round-robins a manifest's shards over ranks.
var NewShardPartition = data.NewPartition

// TierCache is a capacity-bounded byte cache with a pluggable eviction
// policy, reusable beyond the loader (e.g. a serving feature cache).
type TierCache = data.Cache

// NewTierCache builds a cache with the given policy (nil means LRU).
var NewTierCache = data.NewCache

// Eviction policies for TierCache.
var (
	NewLRU           = data.NewLRU
	NewDoorkeeperLRU = data.NewDoorkeeperLRU
)

// ---- experiments ------------------------------------------------------------------

// Experiment is one paper-claim reproduction (E1-E17).
type Experiment = experiments.Experiment

// ExperimentConfig sizes an experiment run.
type ExperimentConfig = experiments.Config

// Experiments returns the full E1-E17 suite.
var Experiments = experiments.All

// ExperimentByID finds one experiment.
var ExperimentByID = experiments.ByID

// Table is an aligned-text result table.
type Table = trace.Table

// ---- extension layers and schedules ------------------------------------------

// 2-D convolution stack (the histology imaging workload's layers).
var (
	NewConv2D    = nn.NewConv2D
	NewMaxPool2D = nn.NewMaxPool2D
)

// LRSchedule scales the learning rate per epoch during Train.
type LRSchedule = nn.LRSchedule

// Learning-rate schedules.
type (
	// ConstantLR keeps the base rate.
	ConstantLR = nn.ConstantLR
	// StepDecay multiplies the rate by Gamma every StepEpochs.
	StepDecay = nn.StepDecay
	// CosineDecay anneals the rate to MinFactor over the run.
	CosineDecay = nn.CosineDecay
	// WarmupCosine ramps up linearly, then cosine-anneals (the large-batch
	// recipe data parallelism requires).
	WarmupCosine = nn.WarmupCosine
)

// EarlyStopper signals when validation loss stops improving.
type EarlyStopper = nn.EarlyStopper

// WorkloadExtensions returns the workloads beyond the paper's six core
// drivers: "tumor-hard" and "histology".
var WorkloadExtensions = core.Extensions

// Ablations returns the design-choice ablation studies (A1-A3).
var Ablations = experiments.Ablations

// ---- inference serving ---------------------------------------------------------

// ServeConfig configures an inference Server: replica count, micro-batching
// policy (MaxBatch/MaxLinger), and admission control (QueueCap,
// MaxPendingBatches).
type ServeConfig = serve.Config

// Server is a dynamic micro-batching inference server over model replicas.
type Server = serve.Server

// NewServer starts a server for the given model.
var NewServer = serve.New

// Typed serving errors: load shedding and deadline misses are expected
// outcomes under overload, not failures; ErrBadModel is NewServer's and
// Deploy's answer to a net that does not fit the server's input width (or a
// candidate whose output width differs from the baseline's).
var (
	ErrOverloaded = serve.ErrOverloaded
	ErrDeadline   = serve.ErrDeadline
	ErrBadModel   = serve.ErrBadModel
)

// ServeLoadConfig describes a load-test profile (open or closed loop).
type ServeLoadConfig = serve.LoadConfig

// ServeLoadReport is a load-test result (the BENCH_serve.json schema).
type ServeLoadReport = serve.LoadReport

// RunServeLoad runs the deterministic discrete-event load simulator: same
// seed, bit-identical report.
var RunServeLoad = serve.RunLoad

// RunServeLive replays a load profile against a real concurrent Server.
var RunServeLive = serve.RunLive

// HedgeConfig enables tail-tolerant hedged requests: a request still
// unserved after the budget elapses is duplicated to another replica and
// the first result wins (see ServeConfig.Hedge).
type HedgeConfig = serve.HedgeConfig

// HealthConfig enables replica health scoring with ejection and
// re-admission of gray-degraded replicas (see ServeConfig.Health).
type HealthConfig = serve.HealthConfig

// RetryPolicy bounds client retries with a token-bucket retry budget so
// shed load cannot become a retry storm.
type RetryPolicy = serve.RetryPolicy

// Retrier retries Submit under a RetryPolicy.
type Retrier = serve.Retrier

// NewRetrier wraps a server in a budgeted retrier.
var NewRetrier = serve.NewRetrier

// RolloutConfig configures a versioned model deployment: shadow phase,
// staged canary traffic splits, per-version burn-rate SLO rules, and the
// drain bound on rollback (see Server.Deploy).
type RolloutConfig = serve.RolloutConfig

// RolloutStage is one canary step: a live-traffic fraction held for a
// duration before advancing.
type RolloutStage = serve.RolloutStage

// Rollout is the state machine of one deployment: shadowing, canarying,
// and either promoted or rolled back on SLO breach.
type Rollout = serve.Rollout

// AutoscaleConfig configures health-driven fleet sizing from queue depth,
// recent p99, and replica health, with hysteresis and a surge cap (see
// ServeConfig.Autoscale).
type AutoscaleConfig = serve.AutoscaleConfig

// Autoscaler is the pure scaling decision state machine.
type Autoscaler = serve.Autoscaler

// NewAutoscaler validates a config into an Autoscaler.
var NewAutoscaler = serve.NewAutoscaler

// ResultCacheConfig puts a TTL'd doorkeeper-LRU in front of the batcher:
// a fresh hit settles at admission without occupying a replica (see
// ServeConfig.Cache).
type ResultCacheConfig = serve.ResultCacheConfig

// ---- asynchronous training and strategy comparison -----------------------------

// AsyncConfig configures downpour-style asynchronous parameter-server
// training.
type AsyncConfig = parallel.AsyncConfig

// TrainAsync trains with asynchronous workers against a parameter server.
var TrainAsync = parallel.TrainAsync

// CompareStrategies runs several search strategies over multiple seeds and
// aggregates mean/std best losses and per-seed wins.
var CompareStrategies = hpo.Compare

// ComparisonRow is one strategy's multi-seed summary.
type ComparisonRow = hpo.ComparisonRow
