package parallel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// ElasticConfig configures elastic data-parallel training: synchronous SGD
// that survives worker deaths by detecting the loss of a rank, re-sharding
// the global batch across the survivors, and continuing. Failures are
// injected deterministically through a fault.Plan so chaos runs replay
// bit-for-bit.
type ElasticConfig struct {
	// Workers is the initial worker (replica) count.
	Workers int
	// Loss and NewOptimizer define the objective; NewOptimizer is called
	// once per worker so surviving replicas step identically.
	Loss         nn.Loss
	NewOptimizer func() nn.Optimizer
	// GlobalBatch is the per-step sample count, sharded over live workers;
	// when a worker dies the same global batch spreads over fewer shards.
	GlobalBatch int
	// Epochs is the number of passes over the data.
	Epochs int
	// RNG shuffles the data each epoch.
	RNG *rng.Stream
	// Faults scripts worker kills, stalls, and transient collective errors
	// (nil = run failure-free).
	Faults *fault.Plan
	// Obs, if enabled, records per-worker compute spans, coordinator
	// recovery spans, and fault counters/events.
	Obs *obs.Session
}

// ElasticResult reports an elastic run.
type ElasticResult struct {
	// EpochLoss is the mean per-sample training loss per epoch.
	EpochLoss []float64
	// Steps counts optimizer steps applied (every live worker applies each).
	Steps int
	// Failures counts workers lost to injected crashes.
	Failures int
	// Redistributions counts steps that were re-sharded and re-executed
	// after detecting a death mid-exchange.
	Redistributions int
	// CollectiveRetries counts transient gradient-exchange failures that
	// were retried successfully.
	CollectiveRetries int
	// LiveWorkers is the surviving worker count at the end of training.
	LiveWorkers int
}

// elastic coordinator <-> worker protocol. Each worker owns a command
// channel (coordinator to worker) and a result channel (worker to
// coordinator). A worker that crashes closes its result channel instead of
// replying — the runtime analogue of a dropped connection — which is how
// the coordinator detects death without wall-clock timeouts (so chaos
// tests stay deterministic).
type elasticCmd struct {
	kind elasticCmdKind
	step int
	idx  []int     // compute: this worker's sample shard
	grad []float64 // apply: averaged flattened gradient
}

type elasticCmdKind int

const (
	elasticCompute elasticCmdKind = iota
	elasticApply
	elasticStop
)

type elasticOut struct {
	lossSum float64   // per-sample loss summed over the shard
	n       int       // shard size
	grad    []float64 // flattened gradient scaled by n
}

// TrainElastic trains net with elastic synchronous data-parallel SGD and
// returns the result; net is updated in place with the final weights (taken
// from the lowest-ranked survivor when worker 0 was killed).
func TrainElastic(net *nn.Net, x, y *tensor.Tensor, cfg ElasticConfig) (*ElasticResult, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("parallel: elastic needs >=1 worker")
	}
	if cfg.Loss == nil || cfg.NewOptimizer == nil {
		return nil, fmt.Errorf("parallel: Loss and NewOptimizer required")
	}
	if cfg.GlobalBatch < cfg.Workers {
		return nil, fmt.Errorf("parallel: global batch %d < workers %d", cfg.GlobalBatch, cfg.Workers)
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 1
	}
	if cfg.RNG == nil {
		return nil, fmt.Errorf("parallel: RNG required")
	}
	n := x.Dim(0)
	if y.Dim(0) != n {
		return nil, fmt.Errorf("parallel: %d inputs vs %d targets", n, y.Dim(0))
	}
	if cfg.Faults.NumKills() >= cfg.Workers {
		return nil, fmt.Errorf("parallel: plan kills %d of %d workers — no survivors",
			cfg.Faults.NumKills(), cfg.Workers)
	}

	p := cfg.Workers
	replicas := make([]*nn.Net, p)
	cmds := make([]chan elasticCmd, p)
	outs := make([]chan elasticOut, p)
	var wg sync.WaitGroup
	// Every clone is taken before worker 0 starts: it trains net itself.
	replicas[0] = net
	for w := 1; w < p; w++ {
		replicas[w] = net.Clone()
	}
	for w := 0; w < p; w++ {
		cmds[w] = make(chan elasticCmd, 1)
		outs[w] = make(chan elasticOut, 1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			elasticWorker(w, replicas[w], cfg.NewOptimizer(), cfg, x, y, cmds[w], outs[w])
		}(w)
	}

	// Precompute epoch orders so a re-sharded run visits identical samples.
	orders := make([][]int, cfg.Epochs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for e := range orders {
		cfg.RNG.ShuffleInts(order)
		orders[e] = append([]int(nil), order...)
	}
	stepsPerEpoch := n / cfg.GlobalBatch
	if stepsPerEpoch == 0 {
		stepsPerEpoch = 1
	}

	live := make([]int, p)
	for i := range live {
		live[i] = i
	}
	o := cfg.Obs
	instr := o.Enabled()
	res := &ElasticResult{}
	flat := flatSize(net.Grads())
	avg := make([]float64, flat)

	globalStep := 0
	for e := 0; e < cfg.Epochs; e++ {
		ord := orders[e]
		epochLossSum := 0.0
		epochSamples := 0
		epochStart := time.Now()
		for s := 0; s < stepsPerEpoch; s++ {
			lo := s * cfg.GlobalBatch
			hi := lo + cfg.GlobalBatch
			if hi > n {
				hi = n
			}
			batch := ord[lo:hi]
			stepStart := time.Now()
			retriedCollective := false

			var results []elasticOut
			for {
				if len(live) == 0 {
					return nil, fmt.Errorf("parallel: all %d workers lost by step %d", p, globalStep)
				}
				// Shard the global batch over the live workers and fan out.
				for i, w := range live {
					shardLo, shardHi := chunkRange(len(batch), len(live), i)
					cmds[w] <- elasticCmd{kind: elasticCompute, step: globalStep,
						idx: batch[shardLo:shardHi]}
				}
				// Gather in worker-id order so float accumulation is
				// deterministic regardless of goroutine scheduling.
				results = results[:0]
				var dead []int
				for _, w := range live {
					r, ok := <-outs[w]
					if !ok {
						dead = append(dead, w)
						continue
					}
					results = append(results, r)
				}
				if len(dead) > 0 {
					res.Failures += len(dead)
					res.Redistributions++
					var sp *obs.Span
					if instr {
						sp = o.Span(0, "elastic-recovery")
						sp.SetArg("step", globalStep)
						for _, w := range dead {
							o.Count("fault.worker_killed", 1)
							o.Emit("fault.kill", float64(w),
								map[string]float64{"step": float64(globalStep)})
						}
					}
					live = removeWorkers(live, dead)
					if instr {
						sp.SetArg("survivors", len(live))
						sp.End()
					}
					continue // redistribute the same step over the survivors
				}
				if cfg.Faults.CollectiveFailsAt(globalStep) && !retriedCollective {
					// Transient exchange failure: drop the gathered gradients
					// and retry the step once.
					retriedCollective = true
					res.CollectiveRetries++
					o.Count("fault.collective_retry", 1)
					continue
				}
				break
			}

			// Average the shard gradients (each pre-scaled by shard size).
			totalSamples := 0
			for i := range avg {
				avg[i] = 0
			}
			lossSum := 0.0
			for _, r := range results {
				totalSamples += r.n
				lossSum += r.lossSum
				for i, g := range r.grad {
					avg[i] += g
				}
			}
			inv := 1 / float64(totalSamples)
			for i := range avg {
				avg[i] *= inv
			}
			applyGrad := append([]float64(nil), avg...)
			for _, w := range live {
				cmds[w] <- elasticCmd{kind: elasticApply, grad: applyGrad}
			}
			res.Steps++
			epochLossSum += lossSum
			epochSamples += totalSamples
			if instr {
				o.OnStep(globalStep, lossSum*inv, time.Since(stepStart))
			}
			globalStep++
		}
		epochLoss := epochLossSum / float64(epochSamples)
		res.EpochLoss = append(res.EpochLoss, epochLoss)
		if instr {
			o.OnEpoch(e, epochLoss, time.Since(epochStart))
		}
	}

	for _, w := range live {
		cmds[w] <- elasticCmd{kind: elasticStop}
	}
	wg.Wait()
	res.LiveWorkers = len(live)
	if instr {
		o.SetGauge("fault.live_workers", float64(len(live)))
	}

	// The caller's net is worker 0's replica; if 0 died, promote the lowest
	// surviving replica's weights into it.
	if len(live) > 0 && live[0] != 0 {
		src := replicas[live[0]].Params()
		dst := net.Params()
		for i := range dst {
			copy(dst[i].Data, src[i].Data)
		}
	}
	return res, nil
}

// elasticWorker is one replica's goroutine: it computes shard gradients on
// demand, applies broadcast updates, and — when the fault plan says so —
// dies by closing its result channel, or stalls to simulate a straggler.
func elasticWorker(id int, model *nn.Net, opt nn.Optimizer, cfg ElasticConfig,
	x, y *tensor.Tensor, cmds <-chan elasticCmd, out chan<- elasticOut) {

	o := cfg.Obs
	params := model.Params()
	grads := model.Grads()
	buf := make([]float64, flatSize(grads))
	for cmd := range cmds {
		switch cmd.kind {
		case elasticStop:
			return
		case elasticApply:
			unflatten(cmd.grad, grads)
			opt.Step(params, grads)
		case elasticCompute:
			if d := cfg.Faults.HangAt(id, cmd.step); d > 0 {
				// Straggler: late but correct. Keep injected stalls tiny in
				// tests; correctness is unaffected either way.
				if o.Enabled() {
					o.Count("fault.worker_hang", 1)
				}
				time.Sleep(d)
			}
			if cfg.Faults.KillAt(id, cmd.step) {
				close(out) // crash: the coordinator sees a dropped channel
				return
			}
			var sp *obs.Span
			if o.Enabled() {
				sp = o.Span(id+1, "elastic-compute")
				sp.SetArg("step", cmd.step)
			}
			bx, by := gather(x, y, cmd.idx)
			model.ZeroGrads()
			outT := model.Forward(bx, true)
			loss := cfg.Loss.Loss(outT, by)
			dout := tensor.New(outT.Shape()...)
			cfg.Loss.Grad(dout, outT, by)
			model.Backward(dout)
			flatten(grads, buf)
			nSamples := len(cmd.idx)
			scaled := make([]float64, len(buf))
			for i, g := range buf {
				scaled[i] = g * float64(nSamples)
			}
			if o.Enabled() {
				sp.End()
			}
			out <- elasticOut{lossSum: loss * float64(nSamples), n: nSamples, grad: scaled}
		}
	}
}

// chunkRange splits n items into p near-equal contiguous chunks and returns
// the i-th chunk's bounds (the same split comm uses for collectives).
func chunkRange(n, p, i int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// removeWorkers drops the dead ids from the live set, preserving order.
func removeWorkers(live []int, dead []int) []int {
	isDead := map[int]bool{}
	for _, w := range dead {
		isDead[w] = true
	}
	keep := live[:0]
	for _, w := range live {
		if !isDead[w] {
			keep = append(keep, w)
		}
	}
	return keep
}
