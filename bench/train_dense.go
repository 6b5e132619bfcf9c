package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/biodata"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// denseState is one set-up of train_dense.
type denseState struct {
	train, val *biodata.Dataset
	net        *nn.Net
	opt        nn.Optimizer
	shuffle    *rng.Stream
}

func setupDense(p denseParams, seed uint64) (*denseState, error) {
	pool := biodata.Tumor(biodata.TumorConfig{Samples: p.Samples, Genes: p.Genes, Classes: p.Classes,
		Informative: p.Informative, Separation: p.Separation, Noise: p.Noise}, rng.New(p.PoolSeed))
	train, val := pool.Split(0.8, rng.New(p.PoolSeed).Split("split"))
	return &denseState{train: train, val: val,
		net:     nn.MLP(p.Genes, p.Hidden, p.Classes, nn.ReLU, rng.New(p.InitSeed)),
		opt:     nn.NewAdamW(p.LR, p.Decay),
		shuffle: rng.New(seed).Split("shuffle")}, nil
}

// stepClock is the one thing the untraced run hangs on nn.Train: a Loss that
// notes the time of each call. Loss.Loss runs once per step, so successive
// notes are one step apart, seen from outside.
type stepClock struct {
	inner nn.Loss
	at    []time.Time
}

func (s *stepClock) Name() string { return s.inner.Name() }

func (s *stepClock) Loss(pred, target *tensor.Tensor) float64 {
	s.at = append(s.at, time.Now())
	return s.inner.Loss(pred, target)
}

func (s *stepClock) Grad(dst, pred, target *tensor.Tensor) { s.inner.Grad(dst, pred, target) }

// stepLatencies turns the clock's notes into step durations, leaving out
// the ones that span an epoch boundary (they contain the evaluation).
func (s *stepClock) stepLatencies(stepsPerEpoch int) []int64 {
	var out []int64
	for i := 1; i < len(s.at); i++ {
		if i%stepsPerEpoch != 0 {
			out = append(out, s.at[i].Sub(s.at[i-1]).Nanoseconds())
		}
	}
	return out
}

// denseOutcome is what either training path, nn.Train or the traced loop,
// reports back.
type denseOutcome struct {
	epochLoss []float64
	valAcc    []float64
	steps     int
	samples   int
	reached   bool
	toQuality time.Duration
	wall      time.Duration
	stepNS    []int64
	mem       memDelta
	evalNS    []int64
}

// trainDenseUntraced is the workload as a user runs it: nn.Train, in
// memory, validation accuracy checked in OnEpoch, stopping at the target (or
// after maxEpochs when stopAtTarget is off, for the traced run's reference).
func trainDenseUntraced(p denseParams, st *denseState, maxEpochs int, stopAtTarget bool) (*denseOutcome, error) {
	clock := &stepClock{inner: nn.SoftmaxCELoss{}}
	o := &denseOutcome{}
	mem := markMem()
	start := time.Now()
	res, err := nn.Train(st.net, st.train.X, st.train.Y, nn.TrainConfig{
		Loss: clock, Optimizer: st.opt, BatchSize: p.Batch, Epochs: maxEpochs,
		Shuffle: true, RNG: st.shuffle,
		OnEpoch: func(epoch int, loss float64) bool {
			acc := nn.EvaluateClassifier(st.net, st.val.X, st.val.Labels)
			o.valAcc = append(o.valAcc, acc)
			if !o.reached && acc >= p.Target {
				o.reached = true
				o.toQuality = time.Since(start)
			}
			return !(o.reached && stopAtTarget)
		}})
	if err != nil {
		return nil, err
	}
	o.wall = time.Since(start)
	o.mem = mem.since()
	o.epochLoss = res.EpochLoss
	o.steps = res.Steps
	o.samples = len(res.EpochLoss) * st.train.N()
	o.stepNS = clock.stepLatencies((st.train.N() + p.Batch - 1) / p.Batch)
	return o, nil
}

// trainDenseTraced is the same training written out from the public calls
// nn.Train makes, with a span around each. It must reproduce nn.Train's
// arithmetic exactly: the caller compares epoch losses bitwise.
func trainDenseTraced(p denseParams, st *denseState, maxEpochs int, rec *recorder) *denseOutcome {
	loss := nn.SoftmaxCELoss{}
	n := st.train.N()
	o := &denseOutcome{}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	xb := tensor.New(p.Batch, st.train.Dim())
	yb := tensor.New(p.Batch, st.train.OutDim())
	mem := markMem()
	start := time.Now()
	for epoch := 0; epoch < maxEpochs && !o.reached; epoch++ {
		st.shuffle.ShuffleInts(order)
		epochLoss, batches := 0.0, 0
		for lo := 0; lo < n; lo += p.Batch {
			idx := order[lo:min(lo+p.Batch, n)]
			op := int64(o.steps)
			t0 := time.Now()
			step := rec.open("nn.step", 0, op, t0)
			bx, by := xb.SliceRows(0, len(idx)), yb.SliceRows(0, len(idx))
			for i, s := range idx {
				copy(bx.Row(i).Data, st.train.X.Row(s).Data)
				copy(by.Row(i).Data, st.train.Y.Row(s).Data)
			}
			t1 := time.Now()
			st.net.ZeroGrads()
			t2 := time.Now()
			out := st.net.Forward(bx, true)
			t3 := time.Now()
			l := loss.Loss(out, by)
			dout := tensor.New(out.Shape()...)
			loss.Grad(dout, out, by)
			t4 := time.Now()
			st.net.Backward(dout)
			t5 := time.Now()
			st.opt.Step(st.net.Params(), st.net.Grads())
			t6 := time.Now()
			rec.add("nn.zero_grads", step, op, t1, t2)
			rec.add("nn.forward", step, op, t2, t3)
			rec.add("nn.loss", step, op, t3, t4)
			rec.add("nn.backward", step, op, t4, t5)
			rec.add("nn.optimizer", step, op, t5, t6)
			rec.end(step, t6)
			o.stepNS = append(o.stepNS, t6.Sub(t0).Nanoseconds())
			epochLoss += l
			batches++
			o.steps++
		}
		o.epochLoss = append(o.epochLoss, epochLoss/float64(batches))
		o.samples += n
		e0 := time.Now()
		acc := nn.EvaluateClassifier(st.net, st.val.X, st.val.Labels)
		e1 := time.Now()
		rec.add("nn.eval", 0, int64(epoch), e0, e1)
		o.evalNS = append(o.evalNS, e1.Sub(e0).Nanoseconds())
		o.valAcc = append(o.valAcc, acc)
		if acc >= p.Target {
			o.reached = true
			o.toQuality = time.Since(start)
		}
	}
	o.wall = time.Since(start)
	o.mem = mem.since()
	rec.count("nn.steps", int64(o.steps))
	return o
}

// pinKernels sets tensor.MaxProcs for the training and returns the undo.
func pinKernels(n int) (undo func()) {
	was := tensor.MaxProcs
	tensor.MaxProcs = n
	return func() { tensor.MaxProcs = was }
}

func runTrainDense(c runConfig, m *meter) error {
	p := c.p.Dense
	setup := func() (*denseState, error) { return setupDense(p, c.seed) }
	if c.traced {
		return runTrainDenseTraced(c, m, setup)
	}
	defer pinKernels(p.KernelProcs)()
	st, setupS, err := timedSetups(c.p.SetupReps, setup, func(*denseState) {})
	if err != nil {
		return err
	}
	o, err := trainDenseUntraced(p, st, p.EpochCap, true)
	if err != nil {
		return err
	}
	m.attempted = o.steps
	if !o.reached {
		m.problem("validation accuracy %.2f not reached within %d epochs", p.Target, p.EpochCap)
		o.toQuality = o.wall
	}
	m.note("train_dense val_accuracy %v epoch_loss %v", o.valAcc, o.epochLoss)
	return m.reportEndToEnd(untracedRun{setupS: setupS, toQuality: o.toQuality, wall: o.wall,
		samples: o.samples, attempted: o.steps, latNS: o.stepNS, allocMB: o.mem.allocMB})
}

// runTrainDenseTraced runs a short nn.Train reference (the untraced step
// time and the losses the loop must match), then the traced loop to the
// target, both with the kernels pinned as in the untraced run, then the
// tensor probes at this workload's layer shapes.
func runTrainDenseTraced(c runConfig, m *meter, setup func() (*denseState, error)) error {
	p := c.p.Dense
	unpin := pinKernels(p.KernelProcs)
	defer unpin()
	ref, err := setup()
	if err != nil {
		return err
	}
	refOut, err := trainDenseUntraced(p, ref, p.RefEpochs, false)
	if err != nil {
		return err
	}
	ref = nil
	release()

	st, err := setup()
	if err != nil {
		return err
	}
	rec := newRecorder()
	gc := markMem()
	o := trainDenseTraced(p, st, p.EpochCap, rec)
	gcd := gc.since()
	unpin() // the probes below measure the kernels with their own fan-out
	m.attempted = o.steps
	if !o.reached {
		m.problem("validation accuracy %.2f not reached within %d epochs", p.Target, p.EpochCap)
	}
	for e, want := range refOut.epochLoss {
		if e >= len(o.epochLoss) {
			break
		}
		if math.Float64bits(o.epochLoss[e]) != math.Float64bits(want) {
			m.problem("traced loop diverged from nn.Train at epoch %d: loss %v, nn.Train %v", e, o.epochLoss[e], want)
			break
		}
	}
	m.note("train_dense val_accuracy %v epoch_loss %v", o.valAcc, o.epochLoss)

	self := selfTimes(rec.spans)
	piece := func(name string) float64 { return median(msOf(self[name])) }
	pieces := []struct {
		metric, span string
	}{{"nn.zero_grads_ms", "nn.zero_grads"}, {"nn.forward_ms", "nn.forward"}, {"nn.loss_ms", "nn.loss"},
		{"nn.backward_ms", "nn.backward"}, {"nn.optimizer_ms", "nn.optimizer"}}
	sum := 0.0
	for _, pc := range pieces {
		v := piece(pc.span)
		m.setN(pc.metric, v, len(self[pc.span]))
		sum += v
	}
	stepMS := median(msOf(o.stepNS))
	untracedStepMS := median(msOf(refOut.stepNS))
	residual := (untracedStepMS - sum) / untracedStepMS
	m.setN("nn.step_ms", stepMS, len(o.stepNS))
	m.setN("nn.eval_ms", median(msOf(o.evalNS)), len(o.evalNS))
	m.set("nn.step_residual_frac", residual)
	// The five calls must account for the step, both the traced step they
	// were cut from and the nn.Train step of the reference segment: a table
	// that does not add up is a failed run, and says where the gap is.
	for _, against := range []struct {
		name   string
		stepMS float64
	}{{"traced", stepMS}, {"nn.Train", untracedStepMS}} {
		if math.Abs(against.stepMS-sum)/against.stepMS <= p.ResidualLimit {
			continue
		}
		msg := fmt.Sprintf("step breakdown does not add up: %s step %.3f ms, pieces sum %.3f ms;", against.name, against.stepMS, sum)
		for _, pc := range pieces {
			msg += fmt.Sprintf(" %s=%.3f", pc.span, piece(pc.span))
		}
		m.problem("%s; unaccounted: %.3f ms outside the five calls (batch gather, loop)", msg, against.stepMS-sum)
	}
	m.set("nn.steps_to_quality", float64(o.steps))
	gflops := 6 * float64(st.net.NumParams()) * float64(p.Batch) / (stepMS / 1e3) / 1e9
	m.set("nn.step_gflops", gflops)
	m.set("nn.allocs_per_step", o.mem.mallocs/float64(o.steps))
	m.set("nn.alloc_kb_per_step", o.mem.allocMB*1024/float64(o.steps))
	m.set("trace.overhead_frac", (stepMS-untracedStepMS)/untracedStepMS)
	m.set("runtime.gc_cycles", gcd.gcCycles)
	m.set("runtime.gc_pause_total_ms", gcd.gcPauseMS)

	peak := probeTensorTrain(m, p.Batch, p.Genes, p.Hidden[0])
	if o.reached {
		m.set("nn.step_roofline_frac", gflops/peak)
	}
	m.set("runtime.heap_peak_mb", float64(markMem().ms.HeapSys)/(1<<20))
	return writeSpans(c, rec, "train_dense")
}

// writeSpans stores a traced run's spans when an output directory was given.
func writeSpans(c runConfig, rec *recorder, workload string) error {
	if c.spanDir == "" {
		return nil
	}
	return rec.write(fmt.Sprintf("%s/spans_%s_seed%d.jsonl", c.spanDir, workload, c.seed))
}
