package experiments

import (
	"encoding/json"
	"io"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/lowp"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// E13 models and measures DDP-style bucketed, overlapped gradient allreduce
// with error-feedback compression.
//
// Model side: backward produces gradients output-layer-first, so buckets of
// gradient bytes become ready while backward is still running for earlier
// layers. A dedicated comm channel reduces buckets serially as they land:
//
//	start_b = max(ready_b, end_{b-1});  end_b = start_b + T_coll(bucketBytes)
//
// The communication left on the critical path is exposed = max(0, end_last -
// T_bwd), so step = T_fwd + T_bwd + exposed, versus the flat baseline's
// step = T_fwd + T_bwd + T_coll(allBytes). One bucket degenerates exactly to
// flat (nothing is ready before backward ends); too many buckets pay the
// per-collective latency alpha once per bucket — the sweep exposes the
// U-shape between the two.
//
// Compression rides the same timeline with a different wire cost: the
// error-feedback wire (top-k or packed int8, wire length taken from the
// actual lowp.GradCompressor) is value-independent, so it is exchanged with
// a ring allgather of p fixed-size segments and each rank reduces locally —
// the construction internal/parallel really executes.

// e13Widths is a CANDLE-style fully-connected tower: a wide input embedding
// into a deep stack of uniform dense layers (~28M parameters). Uniform layer
// sizes matter here: buckets never split a layer's gradient (matching
// parallel.buildBucketPlan's tensor granularity), so one dominant layer
// would cap the useful bucket count at a handful.
var e13Widths = func() []int {
	w := []int{4096}
	for i := 0; i < 24; i++ {
		w = append(w, 1024)
	}
	return append(w, 2)
}()

// e13Layer is one dense layer's share of the modelled backward pass.
type e13Layer struct {
	bytes  float64 // gradient payload (params * bytes/elem)
	bwdSec float64 // backward compute time attributed to this layer
}

// e13Layers splits spec-level compute across layers proportional to flops.
// Backward is 2/3 of TrainFlopsPerStep's 3x-forward total.
func e13Layers(m *machine.Machine, widths []int, perNodeBatch int, prec lowp.Precision) (layers []e13Layer, fwdSec, bwdSec float64) {
	spec := machine.MLPSpec("e13-mlp", widths)
	compute := machine.StepComputeTime(m, spec, perNodeBatch, prec)
	fwdSec = compute / 3
	bwdSec = compute - fwdSec
	var totalFlops float64
	for i := 0; i+1 < len(widths); i++ {
		totalFlops += 2 * float64(widths[i]) * float64(widths[i+1])
	}
	for i := 0; i+1 < len(widths); i++ {
		in, out := float64(widths[i]), float64(widths[i+1])
		layers = append(layers, e13Layer{
			bytes:  (in*out + out) * machine.BytesPerElement(prec),
			bwdSec: bwdSec * (2 * in * out) / totalFlops,
		})
	}
	return layers, fwdSec, bwdSec
}

// e13Bucket is one modelled gradient bucket: payload plus the backward
// timestamp at which its last gradient lands.
type e13Bucket struct {
	bytes, ready float64
}

// e13PlanBuckets walks layers in backward order (output first), closing a
// bucket whenever it reaches the even byte target — the same greedy policy
// parallel.buildBucketPlan applies to tensors.
func e13PlanBuckets(layers []e13Layer, nBuckets int) []e13Bucket {
	var total float64
	for _, l := range layers {
		total += l.bytes
	}
	target := total / float64(nBuckets)
	var out []e13Bucket
	elapsed := 0.0
	cur := e13Bucket{}
	for i := len(layers) - 1; i >= 0; i-- {
		elapsed += layers[i].bwdSec
		cur.bytes += layers[i].bytes
		cur.ready = elapsed
		if cur.bytes >= target-1e-9 && len(out) < nBuckets-1 {
			out = append(out, cur)
			cur = e13Bucket{}
		}
	}
	if cur.bytes > 0 {
		out = append(out, cur)
	}
	return out
}

// e13Chain runs the buckets through the serial comm channel and returns the
// total collective time and the part left exposed past the backward pass.
func e13Chain(buckets []e13Bucket, bwdSec float64, cost func(bytes float64) float64) (commSec, exposedSec float64) {
	end := 0.0
	for _, b := range buckets {
		c := cost(b.bytes)
		commSec += c
		start := math.Max(b.ready, end)
		end = start + c
	}
	return commSec, math.Max(0, end-bwdSec)
}

// e13AllGatherTime is the ring-allgather alpha-beta cost: p-1 steps each
// moving one rank's fixed-size wire segment.
func e13AllGatherTime(f machine.Fabric, p int, wireBytes float64) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1) * (f.LatencySec + wireBytes/f.BandwidthBps)
}

// CommBenchRow is one configuration's modelled step breakdown.
type CommBenchRow struct {
	Label     string  `json:"label"`
	Buckets   int     `json:"buckets"`
	WireRatio float64 `json:"wire_ratio"` // raw/wire words; 1 = uncompressed
	CommMs    float64 `json:"comm_ms"`    // total collective time per step
	ExposedMs float64 `json:"exposed_ms"` // comm left on the critical path
	Overlap   float64 `json:"overlap_fraction"`
	StepMs    float64 `json:"step_ms"`
	Speedup   float64 `json:"speedup_vs_flat"`
}

// CommBenchReport is the committed BENCH_comm.json document: the modelled
// step-time frontier for bucketed overlap and error-feedback compression on
// one FutureDNN group. Every number is closed-form machine-model output —
// same binary, same bytes — which is what lets the artifact live in the
// repository with a byte-compare test.
type CommBenchReport struct {
	Machine      string         `json:"machine"`
	Fabric       string         `json:"fabric"`
	Ranks        int            `json:"ranks"`
	Algo         string         `json:"algo"`
	Model        string         `json:"model"`
	Params       float64        `json:"params"`
	GradMB       float64        `json:"grad_mb"`
	PerNodeBatch int            `json:"per_node_batch"`
	ComputeMs    float64        `json:"compute_ms"`
	BackwardMs   float64        `json:"backward_ms"`
	Flat         CommBenchRow   `json:"flat"`
	Bucketed     []CommBenchRow `json:"bucketed"`
	Compressed   []CommBenchRow `json:"compressed"`
	BestBuckets  int            `json:"best_buckets"`
	BestSpeedup  float64        `json:"best_speedup"`
}

// WriteJSON writes the report as indented JSON (stable field order).
func (r *CommBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CommBench builds the committed gradient-communication profile: one
// FutureDNN group (8 ranks on the 300 GB/s group fabric), the ~36M-parameter
// CANDLE-style MLP, fp32 gradients reduced with Rabenseifner. It panics if
// the modelled frontier loses its headline shape — bucketed overlap must
// beat flat and compression must beat uncompressed — so a regression in the
// model can never silently regenerate a flat artifact.
func CommBench() *CommBenchReport {
	const (
		p            = 8
		perNodeBatch = 256
	)
	m := machine.FutureDNN(p)
	f := m.FabricFor(p)
	algo := comm.ARRabenseifner
	prec := lowp.FP32

	layers, fwdSec, bwdSec := e13Layers(m, e13Widths, perNodeBatch, prec)
	spec := machine.MLPSpec("e13-mlp", e13Widths)
	gradBytes := spec.Params * machine.BytesPerElement(prec)

	flatComm := machine.CollectiveTime(f, algo, p, gradBytes)
	flatStep := fwdSec + bwdSec + flatComm
	ms := func(s float64) float64 { return s * 1e3 }

	rep := &CommBenchReport{
		Machine:      m.Name,
		Fabric:       f.Name,
		Ranks:        p,
		Algo:         algo.String(),
		Model:        spec.Name,
		Params:       spec.Params,
		GradMB:       gradBytes / (1 << 20),
		PerNodeBatch: perNodeBatch,
		ComputeMs:    ms(fwdSec + bwdSec),
		BackwardMs:   ms(bwdSec),
		Flat: CommBenchRow{Label: "flat-allreduce", Buckets: 1, WireRatio: 1,
			CommMs: ms(flatComm), ExposedMs: ms(flatComm),
			StepMs: ms(flatStep), Speedup: 1},
	}

	row := func(label string, nBuckets int, ratio float64, commSec, exposedSec float64) CommBenchRow {
		step := fwdSec + bwdSec + exposedSec
		overlap := 0.0
		if commSec > 0 {
			overlap = math.Min(1, math.Max(0, 1-exposedSec/commSec))
		}
		return CommBenchRow{Label: label, Buckets: nBuckets, WireRatio: ratio,
			CommMs: ms(commSec), ExposedMs: ms(exposedSec), Overlap: overlap,
			StepMs: ms(step), Speedup: flatStep / step}
	}

	for _, nb := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		buckets := e13PlanBuckets(layers, nb)
		if n := len(rep.Bucketed); n > 0 && rep.Bucketed[n-1].Buckets == len(buckets) {
			continue // layer granularity exhausted — same effective plan
		}
		commSec, exposedSec := e13Chain(buckets, bwdSec, func(b float64) float64 {
			return machine.CollectiveTime(f, algo, p, b)
		})
		r := row("bucketed", len(buckets), 1, commSec, exposedSec)
		rep.Bucketed = append(rep.Bucketed, r)
		if r.Speedup > rep.BestSpeedup {
			rep.BestSpeedup, rep.BestBuckets = r.Speedup, r.Buckets
		}
	}

	// Compression rows at a mid-sweep bucket count. The wire length per
	// bucket comes from the real lowp encoder (wire words per raw word is
	// value-independent), and the exchange is the allgather the compressed
	// trainer path actually performs.
	const compBuckets = 16
	for _, c := range []struct {
		label string
		kind  lowp.CompressKind
		topK  float64
	}{
		{"topk-10pct", lowp.CompressTopK, 0.10},
		{"int8", lowp.CompressInt8, 0},
	} {
		gc := lowp.NewGradCompressor(c.kind, c.topK)
		buckets := e13PlanBuckets(layers, compBuckets)
		commSec, exposedSec := e13Chain(buckets, bwdSec, func(b float64) float64 {
			n := int(b / machine.BytesPerElement(prec))
			wire := b * float64(gc.WireLen(n)) / float64(n)
			return e13AllGatherTime(f, p, wire)
		})
		n := int(gradBytes / machine.BytesPerElement(prec) / compBuckets)
		ratio := float64(n) / float64(gc.WireLen(n))
		rep.Compressed = append(rep.Compressed,
			row(c.label, len(buckets), ratio, commSec, exposedSec))
	}

	if rep.BestSpeedup <= 1 {
		panic("experiments: CommBench lost its shape: bucketed overlap no faster than flat")
	}
	best := rep.Bucketed[0]
	for _, r := range rep.Bucketed {
		if r.Speedup > best.Speedup {
			best = r
		}
	}
	if best.Overlap <= 0 {
		panic("experiments: CommBench lost its shape: no modelled overlap at the best bucket count")
	}
	for _, r := range rep.Compressed {
		if r.StepMs >= rep.Flat.StepMs {
			panic("experiments: CommBench lost its shape: compressed step no faster than flat")
		}
	}
	return rep
}

// E13Comm reports the bucketed-overlap frontier two ways: the CommBench
// machine model (engine "model"), and real goroutine-level data-parallel
// training on this host (engine "host") where comm, exposed-comm and the
// overlap fraction are measured by the bucket reducer itself. The host rows
// substitute wall-clock measurement for the model's closed forms — same
// timeline construction, so the shape (overlap > 0, exposed < total comm)
// must survive the substitution even though host magnitudes are hardware-
// dependent and therefore asserted only as shapes, not values.
func E13Comm(cfg Config) *trace.Table {
	t := trace.NewTable("E13 overlapped bucketed gradient allreduce with error-feedback compression",
		"engine", "scenario", "ranks", "buckets", "wire-ratio",
		"comm-ms", "exposed-ms", "overlap", "step-ms", "speedup")

	rep := CommBench()
	add := func(r CommBenchRow) {
		t.AddRow("model", r.Label, rep.Ranks, r.Buckets, r.WireRatio,
			r.CommMs, r.ExposedMs, r.Overlap, r.StepMs, r.Speedup)
	}
	add(rep.Flat)
	for _, r := range rep.Bucketed {
		add(r)
	}
	for _, r := range rep.Compressed {
		add(r)
	}

	// Host runs: 4 goroutine replicas, measured bucket metrics. The net is
	// deep and wide enough, and the per-rank batch (128 rows) large enough,
	// that backward compute per step dwarfs one bucket's channel allreduce —
	// otherwise there is nothing to hide the communication behind and the
	// measured overlap collapses to zero. (At 32 rows per rank it did, once
	// the packed GEMM halved backward: overlap read 0.00-0.05.)
	root := rng.New(cfg.Seed).Split("e13")
	din, classes := 128, 8
	const globalBatch = 512
	nSamples := 4 * globalBatch
	epochs := 2
	if cfg.Quick {
		nSamples, epochs = 2*globalBatch, 1
	}
	x := tensor.New(nSamples, din)
	x.FillRandNorm(root.Split("x"), 1)
	labels := make([]int, nSamples)
	for i := range labels {
		labels[i] = i % classes
	}
	y := nn.OneHot(labels, classes)

	// Pin each rank's tensor kernels to one core (as E3's host runs do):
	// oversubscribed kernel workers make the ranks jitter against each other,
	// and that skew — not wire time — then dominates every collective,
	// drowning the overlap signal the measurement exists to show.
	savedProcs := tensor.MaxProcs
	tensor.MaxProcs = 1
	defer func() { tensor.MaxProcs = savedProcs }()

	base := parallel.DataParallelConfig{
		Replicas:     4,
		Algo:         comm.ARTree,
		Loss:         nn.SoftmaxCELoss{},
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05) },
		GlobalBatch:  globalBatch,
		Epochs:       epochs,
		Obs:          cfg.Obs,
	}
	run := func(mut func(*parallel.DataParallelConfig)) (*parallel.DataParallelResult, float64) {
		net := nn.MLP(din, []int{256, 256, 192, 128}, classes, nn.ReLU, rng.New(cfg.Seed))
		c := base
		c.RNG = rng.New(cfg.Seed + 1)
		if mut != nil {
			mut(&c)
		}
		start := time.Now()
		res, err := parallel.TrainDataParallel(net, x, y, c)
		if err != nil {
			panic(err)
		}
		return res, time.Since(start).Seconds() / float64(res.Steps)
	}

	_, flatStep := run(nil)
	hostRow := func(scenario string, res *parallel.DataParallelResult, stepSec float64) {
		steps := float64(res.Steps)
		ratio := res.CompressionRatio
		if ratio == 0 {
			ratio = 1
		}
		t.AddRow("host", scenario, base.Replicas, res.Buckets, ratio,
			res.CommSeconds/steps*1e3, res.ExposedCommSeconds/steps*1e3,
			res.OverlapFraction, stepSec*1e3, flatStep/stepSec)
	}
	t.AddRow("host", "flat", base.Replicas, 0, 1.0, 0.0, 0.0, 0.0, flatStep*1e3, 1.0)

	const hostBucketElems = 16384
	res, step := run(func(c *parallel.DataParallelConfig) {
		c.BucketElems = hostBucketElems
	})
	hostRow("bucketed", res, step)
	res, step = run(func(c *parallel.DataParallelConfig) {
		c.BucketElems, c.Overlap = hostBucketElems, true
	})
	hostRow("bucketed+overlap", res, step)
	if cfg.Obs.Enabled() {
		cfg.Obs.Emit("e13.host_overlap", res.OverlapFraction, nil)
	}
	res, step = run(func(c *parallel.DataParallelConfig) {
		c.BucketElems, c.Overlap, c.Compress = hostBucketElems, true, lowp.CompressInt8
	})
	hostRow("overlap+int8", res, step)
	return t
}
