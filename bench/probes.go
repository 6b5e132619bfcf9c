package main

import (
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// probeBudget is how long one probe keeps calling its function. Probes are
// diagnostics beside the traced run, so they are kept short.
const probeBudget = 250 * time.Millisecond

// probe calls fn alone, once to warm up and then for the budget (at least
// five times), and returns the median seconds per call, the call count and
// the mallocs per call.
func probe(budget time.Duration, fn func()) (sec float64, n int, allocs float64) {
	fn()
	var times []float64
	mem := markMem()
	for start := time.Now(); len(times) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), len(times), mem.since().mallocs / float64(len(times))
}

func randTensor(r *rng.Stream, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	t.FillRandNorm(r, 1)
	return t
}

func randF32(r *rng.Stream, rows, cols int) *tensor.F32 {
	t := tensor.NewF32(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(r.Norm())
	}
	return t
}

func gemmGflops(m, k, n int, sec float64) float64 {
	return 2 * float64(m) * float64(k) * float64(n) / sec / 1e9
}

// probeTensorTrain measures the three f64 GEMM entry points and the packed
// f32 backend at train_dense's first-layer shape, and the host peak (best
// of f64 and every registered f32 backend at 512^3), which it returns.
func probeTensorTrain(m *meter, batch, in, out int) float64 {
	r := rng.New(1)
	x, w, y := randTensor(r, batch, in), randTensor(r, in, out), tensor.New(batch, out)
	sec, n, allocs := probe(probeBudget, func() { tensor.MatMul(y, x, w) })
	m.setN("tensor.gemm_f64_nn_gflops", gemmGflops(batch, in, out, sec), n)
	m.set("tensor.gemm_allocs_per_op", allocs)

	// dW = xT @ dy: x is (K x M) = (batch x in), dy is (batch x out).
	dy, dw := randTensor(r, batch, out), tensor.New(in, out)
	sec, n, _ = probe(probeBudget, func() { tensor.MatMulTransA(dw, x, dy) })
	m.setN("tensor.gemm_f64_transa_gflops", gemmGflops(in, batch, out, sec), n)

	// dx = dy @ wT.
	dx := tensor.New(batch, in)
	sec, n, _ = probe(probeBudget, func() { tensor.MatMulTransB(dx, dy, w) })
	m.setN("tensor.gemm_f64_transb_gflops", gemmGflops(batch, out, in, sec), n)

	packed, err := tensor.BackendByName("packed")
	if err != nil {
		m.problem("tensor: %v", err)
		return 0
	}
	x32, w32, y32 := randF32(r, batch, in), randF32(r, in, out), tensor.NewF32(batch, out)
	sec, n, _ = probe(probeBudget, func() { packed.MatMulF32(y32, x32, w32) })
	m.setN("tensor.gemm_f32_packed_gflops", gemmGflops(batch, in, out, sec), n)

	const s = 512
	a, b, c := randTensor(r, s, s), randTensor(r, s, s), tensor.New(s, s)
	sec, _, _ = probe(probeBudget, func() { tensor.MatMul(c, a, b) })
	peak := gemmGflops(s, s, s, sec)
	a32, b32, c32 := randF32(r, s, s), randF32(r, s, s), tensor.NewF32(s, s)
	for _, name := range tensor.BackendNames() {
		if name == "naive" {
			continue // the bitwise reference: never the peak, and slow at 512^3
		}
		be, err := tensor.BackendByName(name)
		if err != nil {
			m.problem("tensor: %v", err)
			continue
		}
		sec, _, _ = probe(probeBudget, func() { be.MatMulF32(c32, a32, b32) })
		peak = max(peak, gemmGflops(s, s, s, sec))
	}
	m.set("tensor.host_peak_gflops", peak)
	return peak
}

// probeServeShapes measures the GEMM and the inference forward pass at the
// batch sizes the serving path runs, and returns forward seconds by batch.
func probeServeShapes(m *meter, net *nn.Net, in, hidden int) map[int]float64 {
	r := rng.New(2)
	w := randTensor(r, in, hidden)
	for _, rows := range []int{4, 16} {
		x, y := randTensor(r, rows, in), tensor.New(rows, hidden)
		sec, n, _ := probe(probeBudget, func() { tensor.MatMul(y, x, w) })
		name := "tensor.gemm_f64_m4_gflops"
		if rows == 16 {
			name = "tensor.gemm_f64_m16_gflops"
		}
		m.setN(name, gemmGflops(rows, in, hidden, sec), n)
	}
	fwd := map[int]float64{}
	for _, b := range []struct {
		rows int
		name string
	}{{1, "nn.forward_infer_ms_b1"}, {4, "nn.forward_infer_ms_b4"}, {16, "nn.forward_infer_ms_b16"}} {
		x := randTensor(r, b.rows, in)
		sec, n, _ := probe(probeBudget, func() { net.Forward(x, false) })
		fwd[b.rows] = sec
		m.setN(b.name, sec*1e3, n)
	}
	sec, n, _ := probe(probeBudget, func() { net.Clone() })
	m.setN("nn.clone_ms", sec*1e3, n)
	return fwd
}

// forwardAt interpolates the forward probe to a fractional batch size.
func forwardAt(fwd map[int]float64, batch float64) float64 {
	pts := []int{1, 4, 16}
	if batch <= 1 {
		return fwd[1]
	}
	for i := 1; i < len(pts); i++ {
		lo, hi := float64(pts[i-1]), float64(pts[i])
		if batch <= hi {
			return fwd[pts[i-1]] + (batch-lo)/(hi-lo)*(fwd[pts[i]]-fwd[pts[i-1]])
		}
	}
	return fwd[16]
}

// probeComm times Rank.AllReduce alone on a world of ranks goroutines: each
// algorithm on bigElems float64 (bandwidth), and the ring on gradElems, the
// workload's flat gradient length (latency per call).
func probeComm(m *meter, ranks, gradElems, bigElems int) {
	allreduce := func(elems int, algo comm.AllReduceAlgorithm) func() {
		bufs := make([][]float64, ranks)
		for i := range bufs {
			bufs[i] = make([]float64, elems)
		}
		return func() {
			comm.NewWorld(ranks).Run(func(r *comm.Rank) { r.AllReduce(bufs[r.ID()], algo) })
		}
	}
	for _, a := range []struct {
		algo comm.AllReduceAlgorithm
		name string
	}{{comm.ARRing, "comm.allreduce_ring_mb_per_s"}, {comm.ARTree, "comm.allreduce_tree_mb_per_s"},
		{comm.ARRecursiveDoubling, "comm.allreduce_recdbl_mb_per_s"},
		{comm.ARRabenseifner, "comm.allreduce_rabenseifner_mb_per_s"}} {
		sec, n, _ := probe(probeBudget, allreduce(bigElems, a.algo))
		m.setN(a.name, float64(bigElems)*8/1e6/sec, n)
	}
	sec, n, allocs := probe(probeBudget, allreduce(gradElems, comm.ARRing))
	m.setN("comm.allreduce_ms_per_call", sec*1e3, n)
	m.set("comm.allocs_per_allreduce", allocs)
}

// probeDataDrain drains one loader over the whole manifest alone, with no
// prefetch, so decode and checksum verification are all that is timed.
func probeDataDrain(m *meter, man *data.Manifest, store *data.Store, cfg data.LoaderConfig) error {
	cfg.Prefetch, cfg.Workers = 0, 0
	l, err := data.NewLoader(man, store, cfg)
	if err != nil {
		return err
	}
	defer l.Close()
	batches, samples := 0, 0
	mem := markMem()
	start := time.Now()
	l.Reset(0)
	for {
		x, _, ok := l.Next()
		if !ok {
			break
		}
		batches++
		samples += x.Dim(0)
	}
	sec := time.Since(start).Seconds()
	d := mem.since()
	m.setN("data.drain_samples_per_s", float64(samples)/sec, samples)
	m.set("data.drain_mb_per_s", float64(man.TotalBytes())/1e6/sec)
	m.set("data.allocs_per_batch", d.mallocs/float64(batches))
	return nil
}
