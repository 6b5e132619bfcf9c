package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// E15 measures the GEMM kernels on this host: GFLOP/s for the blocked and
// the packed kernel in both precisions (and the naive float32 reference)
// across square sizes and worker counts, plus end-to-end training throughput
// with the mixed-precision compute path (f32 kernels, f64 master weights)
// switched on and off.
//
// What it found: the packed kernel's speedup over the blocked one is the
// algorithm (panel packing plus a 2x4 register tile), not the precision —
// pure Go emits scalar SSE at both widths, so packed f32 and packed f64 run
// within a few percent of each other per core. With float64 training on the
// packed kernel too, ComputeF32's remaining case is footprint and
// bandwidth, and its per-step narrow/widen traffic can make it the slower
// mode on a host whose caches hold the f64 working set; the train ratio is
// reported, not asserted.
//
// Unlike E13's machine-model profile, every number here is a wall-clock
// measurement, so BENCH_kernels.json cannot be byte-compared against a
// regeneration. Instead the committed artifact carries its headline shape —
// packed at least 1.3x the blocked kernel of the same precision at 512³,
// one worker — and cmd/candlebench's artifact test re-asserts that (and
// schema currency via remarshal) on the committed numbers. The floor is not
// higher because the blocked kernel's speed is bimodal across builds: its
// seven-instruction inner loop runs 3.1 or 3.5-4.2 GFLOP/s depending on
// where the linker places it, at either width, so the measured ratio has
// read anywhere from 1.45x to 1.96x for identical source.

// KernelsGemmRow is one measured GEMM configuration: a kernel ("blocked",
// "packed", or for f32 the "naive" reference) at a precision ("f64", "f32").
type KernelsGemmRow struct {
	Precision string  `json:"precision"`
	Backend   string  `json:"backend"`
	Size      int     `json:"size"` // square M = N = K
	Procs     int     `json:"procs"`
	GFLOPs    float64 `json:"gflops"`
}

// KernelsHeadline compares the two kernels of one precision at the largest
// measured square size, one worker.
type KernelsHeadline struct {
	Precision       string  `json:"precision"`
	BlockedGF       float64 `json:"blocked_gflops"`
	PackedGF        float64 `json:"packed_gflops"`
	PackedVsBlocked float64 `json:"packed_vs_blocked"`
}

// KernelsTrainRow is one measured training configuration: the same MLP and
// data, with and without the float32 compute path.
type KernelsTrainRow struct {
	Mode        string  `json:"mode"` // "f64" or "f32-compute"
	StepsPerSec float64 `json:"steps_per_sec"`
	Ratio       float64 `json:"ratio_vs_f64"`
}

// KernelsReport is the committed BENCH_kernels.json document.
type KernelsReport struct {
	GoMaxProcs   int               `json:"gomaxprocs"`
	Backends     []string          `json:"backends"`
	Gemm         []KernelsGemmRow  `json:"gemm"`
	HeadlineSize int               `json:"headline_size"`
	Headline     []KernelsHeadline `json:"headline"` // f64, then f32
	Train        []KernelsTrainRow `json:"train"`
	// TrainRatioF32 is ComputeF32 steps/s over float64 steps/s; above 1
	// means the f32 compute path trains faster on this host.
	TrainRatioF32 float64 `json:"train_ratio_f32"`
}

// WriteJSON writes the report as indented JSON (stable field order).
func (r *KernelsReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// kernelsSizes returns the square GEMM sizes to sweep. The full sweep ends
// at 512 — the headline shape the acceptance claim names; quick stays small
// enough for `go test -bench` regeneration.
func kernelsSizes(quick bool) []int {
	if quick {
		return []int{48, 96}
	}
	return []int{128, 256, 512}
}

// kernelsProcs returns the worker counts to sweep: serial always, plus the
// host's full parallelism when it has more than one core.
func kernelsProcs() []int {
	procs := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		procs = append(procs, p)
	}
	return procs
}

// measureGFLOPs times fn (which performs flops floating-point operations per
// call) with best-of-trials adaptive repetition and returns GFLOP/s. The
// best trial, not the mean, is the right estimator on a shared host: noise
// only ever makes a trial slower.
func measureGFLOPs(fn func(), flops float64, budget time.Duration) float64 {
	fn() // warm caches, pools, and the scheduler
	start := time.Now()
	fn()
	once := time.Since(start)
	reps := 1
	if once > 0 {
		if r := int(budget / once); r > 1 {
			reps = r
		}
	}
	best := once
	for trial := 0; trial < 3; trial++ {
		start = time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if d := time.Since(start) / time.Duration(reps); d < best {
			best = d
		}
	}
	return flops / best.Seconds() / 1e9
}

// kernelsTrainNet builds the throughput-benchmark MLP and batch: wide enough
// that the Dense GEMMs dominate the step, so the kernel swap is visible
// end-to-end and not buried under framework overhead.
func kernelsTrainNet(quick bool, seed uint64) (*nn.Net, *tensor.Tensor, *tensor.Tensor) {
	r := rng.New(seed).Split("e15-train")
	in, batch := 256, 64
	hidden := []int{512, 512}
	if quick {
		in, batch, hidden = 128, 32, []int{256}
	}
	net := nn.MLP(in, hidden, 8, nn.ReLU, r.Split("w"))
	x := tensor.New(batch, in)
	x.FillRandNorm(r.Split("x"), 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 8
	}
	return net, x, nn.OneHot(labels, 8)
}

// kernelsTrainRate measures optimizer steps per second for one compute mode.
func kernelsTrainRate(quick bool, seed uint64, f32 bool) float64 {
	net, x, y := kernelsTrainNet(quick, seed)
	cfg := nn.TrainConfig{Loss: nn.SoftmaxCELoss{}, Optimizer: nn.NewAdam(0.001),
		ComputeF32: f32}
	if f32 {
		net.SetComputeF32(true)
	}
	steps := 12
	if quick {
		steps = 4
	}
	nn.TrainStep(net, x, y, cfg, nil, nil) // warm: buffer allocation, im2col caches
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		for i := 0; i < steps; i++ {
			nn.TrainStep(net, x, y, cfg, nil, nil)
		}
		if rate := float64(steps) / time.Since(start).Seconds(); rate > best {
			best = rate
		}
	}
	return best
}

// KernelsBench measures the kernel profile this host produces. In the full
// (non-quick) configuration it panics if the headline shape is lost outright
// — packed no faster than blocked in either precision — so a kernel
// regression cannot silently regenerate an artifact that contradicts the
// packed kernel's reason to exist. The margin itself is asserted on the
// committed numbers by the artifact test, not here, so one noisy generation
// run cannot fail tier-1.
func KernelsBench(quick bool) *KernelsReport {
	budget := 120 * time.Millisecond
	if quick {
		budget = 15 * time.Millisecond
	}
	rep := &KernelsReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Backends:   tensor.BackendNames(),
		Headline:   []KernelsHeadline{{Precision: "f64"}, {Precision: "f32"}},
	}
	sizes := kernelsSizes(quick)
	rep.HeadlineSize = sizes[len(sizes)-1]

	savedProcs := tensor.MaxProcs
	defer func() { tensor.MaxProcs = savedProcs }()
	root := rng.New(7).Split("e15-gemm")

	for _, size := range sizes {
		flops := 2 * float64(size) * float64(size) * float64(size)
		a64 := tensor.New(size, size)
		b64 := tensor.New(size, size)
		c64 := tensor.New(size, size)
		a64.FillRandNorm(root.Split("a"), 1)
		b64.FillRandNorm(root.Split("b"), 1)
		a32 := tensor.NewF32(size, size)
		b32 := tensor.NewF32(size, size)
		c32 := tensor.NewF32(size, size)
		a32.FillRandNorm(root.Split("a32"), 1)
		b32.FillRandNorm(root.Split("b32"), 1)

		type kernel struct {
			precision, backend string
			run                func()
		}
		kernels := []kernel{
			{"f64", "blocked", func() { tensor.MatMulBlocked(c64, a64, b64) }},
			{"f64", "packed", func() { tensor.MatMul(c64, a64, b64) }},
		}
		for _, name := range rep.Backends {
			bk, err := tensor.BackendByName(name)
			if err != nil {
				panic(err)
			}
			kernels = append(kernels, kernel{"f32", name, func() { bk.MatMulF32(c32, a32, b32) }})
		}
		for _, procs := range kernelsProcs() {
			tensor.MaxProcs = procs
			for _, kn := range kernels {
				gf := measureGFLOPs(kn.run, flops, budget)
				rep.Gemm = append(rep.Gemm, KernelsGemmRow{
					Precision: kn.precision, Backend: kn.backend, Size: size, Procs: procs, GFLOPs: gf})
			}
		}
	}
	// Headline: the two kernels of each precision at the largest size, one
	// worker.
	headlineGF := func(precision, backend string) float64 {
		for _, r := range rep.Gemm {
			if r.Precision == precision && r.Backend == backend && r.Size == rep.HeadlineSize && r.Procs == 1 {
				return r.GFLOPs
			}
		}
		return 0
	}
	for i := range rep.Headline {
		h := &rep.Headline[i]
		h.BlockedGF, h.PackedGF = headlineGF(h.Precision, "blocked"), headlineGF(h.Precision, "packed")
		if h.BlockedGF > 0 {
			h.PackedVsBlocked = h.PackedGF / h.BlockedGF
		}
	}

	// Training throughput, serial kernels: the honest per-core number.
	tensor.MaxProcs = 1
	f64Rate := kernelsTrainRate(quick, 7, false)
	f32Rate := kernelsTrainRate(quick, 7, true)
	rep.TrainRatioF32 = f32Rate / f64Rate
	rep.Train = []KernelsTrainRow{
		{Mode: "f64", StepsPerSec: f64Rate, Ratio: 1},
		{Mode: "f32-compute", StepsPerSec: f32Rate, Ratio: rep.TrainRatioF32},
	}

	if !quick {
		for _, h := range rep.Headline {
			if h.PackedGF <= h.BlockedGF {
				panic("experiments: KernelsBench lost its shape: packed " + h.Precision + " GEMM no faster than blocked")
			}
		}
	}
	return rep
}

// E15Kernels renders the kernel profile as an experiment table: one row per
// measured GEMM configuration and one per training mode.
func E15Kernels(cfg Config) *trace.Table {
	t := trace.NewTable("E15 GEMM kernels: blocked vs packed, float64 and float32",
		"kind", "kernel/mode", "size", "procs", "gflops", "steps/s", "ratio")
	rep := KernelsBench(cfg.Quick)
	for _, r := range rep.Gemm {
		t.AddRow("gemm", r.Precision+"-"+r.Backend, r.Size, r.Procs, r.GFLOPs, 0.0, 0.0)
	}
	for _, r := range rep.Train {
		t.AddRow("train", r.Mode, 0, 1, 0.0, r.StepsPerSec, r.Ratio)
	}
	if cfg.Obs.Enabled() {
		for _, h := range rep.Headline {
			cfg.Obs.Emit("e15.packed_vs_blocked_"+h.Precision, h.PackedVsBlocked, nil)
		}
		cfg.Obs.Emit("e15.train_ratio_f32", rep.TrainRatioF32, nil)
	}
	return t
}
