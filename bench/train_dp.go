package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/biodata"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// dpState is one set-up of train_dp_stream: the sharded dataset (immutable,
// shared by every training segment of a run) and the validation split.
type dpState struct {
	p      dpParams
	seed   uint64
	man    *data.Manifest
	store  *data.Store
	val    *biodata.Dataset
	buildS float64
	seg    *dpSegment
}

// dpSegment is what one call of TrainDataParallel consumes: a fresh net and
// a fresh partition (cold caches), both drawn from the seed, so every
// segment of a run starts from the same weights and sees the same batches.
type dpSegment struct {
	net  *nn.Net
	part *data.Partition
}

func (s *dpState) loaderConfig(batch int) data.LoaderConfig {
	total := s.man.TotalBytes()
	return data.LoaderConfig{Batch: batch, Seed: rng.New(s.seed).Split("loader").Uint64(),
		Prefetch: s.p.Prefetch, Workers: s.p.Workers,
		DRAMBytes: total / s.p.DRAMDiv, NVRAMBytes: total / s.p.NVRAMDiv}
}

// newSegment builds the net and the partition for replicas ranks; the
// global batch is the same for any rank count.
func (s *dpState) newSegment(replicas int) (*dpSegment, error) {
	part, err := data.NewPartition(s.man, s.store, replicas, s.loaderConfig(s.p.RankBatch*s.p.Replicas/replicas))
	if err != nil {
		return nil, err
	}
	net := nn.MLP(s.p.Genes, s.p.Hidden, s.p.Classes, nn.ReLU, rng.New(s.seed).Split("init"))
	return &dpSegment{net: net, part: part}, nil
}

func setupDP(p dpParams, seed uint64) (*dpState, error) {
	n := p.Samples + p.ValSamples
	ds := biodata.Tumor(biodata.TumorConfig{Samples: n, Genes: p.Genes, Classes: p.Classes,
		Informative: p.Informative, Separation: p.Separation, Noise: p.Noise}, rng.New(seed).Split("data"))
	train, val := ds.Split((float64(p.Samples)+0.5)/float64(n), rng.New(seed).Split("split"))
	if train.N() != p.Samples {
		return nil, fmt.Errorf("train_dp_stream: split gave %d training samples, want %d", train.N(), p.Samples)
	}
	t0 := time.Now()
	man, store, err := data.Build(train, data.BuildOptions{ShardSamples: p.ShardSamples})
	if err != nil {
		return nil, err
	}
	s := &dpState{p: p, seed: seed, man: man, store: store, val: val, buildS: time.Since(t0).Seconds()}
	s.seg, err = s.newSegment(p.Replicas)
	return s, err
}

func (s *dpState) close() {
	if s != nil && s.seg != nil {
		s.seg.part.Close()
	}
}

// rankTap is what the benchmark knows about one rank from outside: when
// each of its steps began (every step begins with one BatchIterator.Next)
// and, in a traced run, how long it spent inside the data plane and which
// step span is open. Only the rank's own goroutine touches it.
type rankTap struct {
	name   string // of the rank's step spans
	at     []time.Time
	waitNS int64
	step   int32
	op     int64
}

// tappedData wraps the partition handed to TrainDataParallel. Untraced, it
// only notes the time of rank 0's Next calls; traced, it records a span per
// Reset/Next of every rank and keeps the rank's step span open around it.
type tappedData struct {
	parallel.ShardedData
	taps []*rankTap
	rec  *recorder
}

func tapData(d parallel.ShardedData, rec *recorder) *tappedData {
	t := &tappedData{ShardedData: d, rec: rec}
	for r := 0; r < d.Workers(); r++ {
		t.taps = append(t.taps, &rankTap{name: fmt.Sprintf("parallel.step.rank%d", r)})
	}
	return t
}

func (t *tappedData) Iterator(rank int) nn.BatchIterator {
	it := t.ShardedData.Iterator(rank)
	if t.rec == nil && rank != 0 {
		return it
	}
	return &tappedIter{inner: it, tap: t.taps[rank], rec: t.rec}
}

type tappedIter struct {
	inner nn.BatchIterator
	tap   *rankTap
	rec   *recorder
}

func (it *tappedIter) Reset(epoch int) {
	if it.rec == nil {
		it.inner.Reset(epoch)
		return
	}
	// TrainDataParallel stops an epoch at StepsPerEpoch and never asks for the
	// batch past the end, which is where a Loader books the epoch in its
	// History; the traced run asks, so every epoch's cache counts are kept.
	if len(it.tap.at) > 0 {
		if _, _, more := it.inner.Next(); more {
			panic("train_dp_stream: the epoch had batches left at Reset")
		}
	}
	t0 := time.Now()
	it.inner.Reset(epoch)
	t1 := time.Now()
	it.tap.waitNS += t1.Sub(t0).Nanoseconds()
	it.rec.add("data.reset", 0, int64(epoch), t0, t1)
}

func (it *tappedIter) Next() (x, y *tensor.Tensor, ok bool) {
	t0 := time.Now()
	it.tap.at = append(it.tap.at, t0)
	if it.rec == nil {
		return it.inner.Next()
	}
	it.rec.end(it.tap.step, t0)
	it.tap.op = int64(len(it.tap.at) - 1)
	it.tap.step = it.rec.open(it.tap.name, 0, it.tap.op, t0)
	x, y, ok = it.inner.Next()
	t1 := time.Now()
	it.tap.waitNS += t1.Sub(t0).Nanoseconds()
	it.rec.add("data.next", it.tap.step, it.tap.op, t0, t1)
	return x, y, ok
}

// tappedLoss times Loss and Grad. The ranks share one Loss value, so the
// call cannot tell which rank made it; its spans carry no parent.
type tappedLoss struct {
	inner nn.Loss
	rec   *recorder
	ns    atomic.Int64
}

func (l *tappedLoss) Name() string { return l.inner.Name() }

func (l *tappedLoss) Loss(pred, target *tensor.Tensor) float64 {
	t0 := time.Now()
	v := l.inner.Loss(pred, target)
	t1 := time.Now()
	l.ns.Add(t1.Sub(t0).Nanoseconds())
	l.rec.add("nn.loss", 0, -1, t0, t1)
	return v
}

func (l *tappedLoss) Grad(dst, pred, target *tensor.Tensor) {
	t0 := time.Now()
	l.inner.Grad(dst, pred, target)
	t1 := time.Now()
	l.ns.Add(t1.Sub(t0).Nanoseconds())
	l.rec.add("nn.loss_grad", 0, -1, t0, t1)
}

// tappedOpt times Optimizer.Step under the step span of the rank it was
// made for (NewOptimizer is called once per rank, in rank order).
type tappedOpt struct {
	nn.Optimizer
	tap *rankTap
	rec *recorder
	ns  *atomic.Int64
}

func (o *tappedOpt) Step(params, grads []*tensor.Tensor) {
	t0 := time.Now()
	o.Optimizer.Step(params, grads)
	t1 := time.Now()
	o.ns.Add(t1.Sub(t0).Nanoseconds())
	o.rec.add("nn.optimizer", o.tap.step, o.tap.op, t0, t1)
}

// dpOutcome is one training segment as seen from outside.
type dpOutcome struct {
	res     *parallel.DataParallelResult
	wall    time.Duration
	mem     memDelta
	stepNS  []int64 // rank 0, step to step
	waitNS  int64   // inside Reset/Next, summed over ranks (traced)
	lossNS  int64   // inside Loss/Grad, summed over ranks (traced)
	optNS   int64   // inside Optimizer.Step, summed over ranks (traced)
	samples int
}

// trainDP runs TrainDataParallel over seg for the given epochs. rec == nil
// is the untraced run: the only addition to the program's own path is one
// time.Now per step on rank 0.
func trainDP(s *dpState, seg *dpSegment, epochs int, rec *recorder) (*dpOutcome, error) {
	p := s.p
	tapped := tapData(seg.part, rec)
	var loss nn.Loss = nn.SoftmaxCELoss{}
	newOpt := func() nn.Optimizer { return nn.NewAdam(p.LR) }
	var tl *tappedLoss
	var optNS atomic.Int64
	if rec != nil {
		tl = &tappedLoss{inner: loss, rec: rec}
		loss = tl
		made := 0
		newOpt = func() nn.Optimizer {
			o := &tappedOpt{Optimizer: nn.NewAdam(p.LR), tap: tapped.taps[made], rec: rec, ns: &optNS}
			made++
			return o
		}
	}
	mem := markMem()
	start := time.Now()
	res, err := parallel.TrainDataParallel(seg.net, nil, nil, parallel.DataParallelConfig{
		Replicas: seg.part.Workers(), Data: tapped, Algo: comm.ARRing, Loss: loss, NewOptimizer: newOpt,
		Epochs: epochs, BucketElems: p.BucketElems, Overlap: true})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	o := &dpOutcome{res: res, wall: end.Sub(start), mem: mem.since(),
		samples: res.Steps * p.RankBatch * p.Replicas, optNS: optNS.Load()}
	at := append(tapped.taps[0].at, end)
	for i := 1; i < len(at); i++ {
		o.stepNS = append(o.stepNS, at[i].Sub(at[i-1]).Nanoseconds())
	}
	for _, t := range tapped.taps {
		o.waitNS += t.waitNS
		rec.end(t.step, end)
	}
	if tl != nil {
		o.lossNS = tl.ns.Load()
	}
	return o, nil
}

// dpEpochs is the epoch budget of a run: fixed work, sized from --seconds
// by a pinned constant and never from the measured speed, so the loss
// sequence of a seed is the same on every host.
func dpEpochs(p dpParams, seconds float64) int {
	return max(2, int(math.Round(seconds*p.EpochsPerSecond)))
}

func runTrainDP(c runConfig, m *meter) error {
	p := c.p.DP
	setup := func() (*dpState, error) { return setupDP(p, c.seed) }
	if c.traced {
		return runTrainDPTraced(c, m, setup)
	}
	s, setupS, err := timedSetups(p.SetupReps, setup, (*dpState).close)
	if err != nil {
		return err
	}
	defer s.close()
	o, err := trainDP(s, s.seg, dpEpochs(p, c.seconds), nil)
	if err != nil {
		return err
	}
	m.attempted = o.res.Steps
	acc := nn.EvaluateClassifier(s.seg.net, s.val.X, s.val.Labels)
	if !(acc >= p.Floor) {
		m.problem("validation accuracy %.4f below the floor %.2f after %d epochs", acc, p.Floor, len(o.res.EpochLoss))
	}
	m.note("train_dp_stream val_accuracy %.4f epoch_loss %v", acc, o.res.EpochLoss)
	return m.reportEndToEnd(untracedRun{setupS: setupS, toQuality: o.wall, wall: o.wall,
		samples: o.samples, attempted: o.res.Steps, latNS: o.stepNS, allocMB: o.mem.allocMB})
}

// runTrainDPTraced splits the epoch budget into an untraced reference, the
// traced 2-replica segment and a plain 1-replica baseline, then runs the
// data and comm probes.
func runTrainDPTraced(c runConfig, m *meter, setup func() (*dpState, error)) error {
	p := c.p.DP
	s, err := setup()
	if err != nil {
		return err
	}
	defer s.close()
	budget := dpEpochs(p, c.seconds)
	refOut, err := trainDP(s, s.seg, max(1, budget/4), nil)
	if err != nil {
		return err
	}
	s.close()
	s.seg = nil

	seg, err := s.newSegment(p.Replicas)
	if err != nil {
		return err
	}
	defer seg.part.Close()
	rec := newRecorder()
	gc := markMem()
	o, err := trainDP(s, seg, max(1, budget/2), rec)
	if err != nil {
		return err
	}
	gcd := gc.since()
	m.attempted = o.res.Steps
	rec.count("parallel.steps", int64(o.res.Steps))
	rec.count("comm.bytes", int64(o.res.TotalBytes))
	for e, want := range refOut.res.EpochLoss {
		if e < len(o.res.EpochLoss) && math.Float64bits(o.res.EpochLoss[e]) != math.Float64bits(want) {
			m.problem("wrapping Loss/Optimizer/BatchIterator changed the arithmetic: epoch %d loss %v, untraced %v", e, o.res.EpochLoss[e], want)
			break
		}
	}
	m.note("train_dp_stream epoch_loss %v", o.res.EpochLoss)

	steps := float64(o.res.Steps)
	ranks := float64(p.Replicas)
	wall := o.wall.Seconds()
	waitS, lossS, optS := float64(o.waitNS)/1e9/ranks, float64(o.lossNS)/1e9/ranks, float64(o.optNS)/1e9/ranks
	busyS := 0.0
	for _, b := range o.res.WorkerBusy {
		busyS += b / ranks
	}
	m.setN("data.next_wait_ms_per_step", waitS/steps*1e3, o.res.Steps)
	m.set("data.wait_frac", waitS/wall)
	var dram, nvram, pfs, restaged int
	for r := 0; r < p.Replicas; r++ {
		seg.part.Loader(r).Next() // books the last epoch, as tappedIter.Reset does the others
		for _, e := range seg.part.Loader(r).History() {
			dram += e.DRAMHits
			nvram += e.NVRAMHits
			pfs += e.PFSReads
			restaged += e.Restaged
		}
	}
	if fetches := float64(dram + nvram + pfs); fetches > 0 {
		m.set("data.dram_hit_frac", float64(dram)/fetches)
		m.set("data.nvram_hit_frac", float64(nvram)/fetches)
	}
	m.set("data.pfs_reads", float64(pfs))
	m.set("data.restaged", float64(restaged))
	m.set("data.build_s", s.buildS)
	m.set("comm.bytes_per_step", o.res.BytesPerRank/steps)
	m.set("comm.calls_per_step", float64(o.res.Buckets))
	m.set("parallel.comm_s", o.res.CommSeconds)
	m.set("parallel.exposed_comm_s", o.res.ExposedCommSeconds)
	m.set("parallel.overlap_frac", o.res.OverlapFraction)
	m.set("parallel.busy_frac", busyS/wall)
	m.set("parallel.busy_imbalance", o.res.BusyImbalance)
	m.set("parallel.optimizer_ms_per_step", optS/steps*1e3)
	m.set("parallel.loss_ms_per_step", lossS/steps*1e3)
	m.set("parallel.fwd_bwd_ms_per_step", (busyS-waitS-lossS-optS)/steps*1e3)
	m.set("runtime.gc_cycles", gcd.gcCycles)
	m.set("runtime.gc_pause_total_ms", gcd.gcPauseMS)
	// Median step against median step: the reference segment runs first, on
	// cold caches, so its mean carries the first epoch's store reads.
	tracedStep, untracedStep := median(msOf(o.stepNS)), median(msOf(refOut.stepNS))
	m.set("trace.overhead_frac", (tracedStep-untracedStep)/untracedStep)

	// The single-worker baseline: the same task, the same global batch, one
	// rank. Both runs have the same GOMAXPROCS; with more ranks than cores
	// the ratio would measure the scheduler and only counts would be kept.
	single, err := s.newSegment(1)
	if err != nil {
		return err
	}
	so, err := trainDP(s, single, max(1, budget/8), nil)
	single.part.Close()
	if err != nil {
		return err
	}
	sps2 := float64(refOut.samples) / refOut.wall.Seconds()
	sps1 := float64(so.samples) / so.wall.Seconds()
	m.set("parallel.scaling_eff_2v1", sps2/(ranks*sps1))

	gradElems := 0
	for _, g := range seg.net.Grads() {
		gradElems += g.Len()
	}
	probeComm(m, p.Replicas, gradElems, p.ProbeElems)
	if err := probeDataDrain(m, s.man, s.store, s.loaderConfig(p.RankBatch)); err != nil {
		return err
	}
	m.set("runtime.heap_peak_mb", float64(markMem().ms.HeapSys)/(1<<20))
	return writeSpans(c, rec, "train_dp_stream")
}
