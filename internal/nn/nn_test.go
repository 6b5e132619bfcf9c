package nn

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/lowp"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// xorData returns the classic XOR problem, replicated with jitter so
// batching has something to chew on.
func xorData(r *rng.Stream, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	base := [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i := 0; i < n; i++ {
		b := base[i%4]
		x.Set(b[0]+r.NormMeanStd(0, 0.05), i, 0)
		x.Set(b[1]+r.NormMeanStd(0, 0.05), i, 1)
		if (b[0] > 0.5) != (b[1] > 0.5) {
			labels[i] = 1
		}
	}
	return x, labels
}

func TestMLPLearnsXOR(t *testing.T) {
	r := rng.New(42)
	x, labels := xorData(r.Split("data"), 400)
	net := MLP(2, []int{16}, 2, Tanh, r.Split("init"))
	y := OneHot(labels, 2)
	res, err := Train(net, x, y, TrainConfig{
		Loss: SoftmaxCELoss{}, Optimizer: NewAdam(0.01),
		BatchSize: 32, Epochs: 60, Shuffle: true, RNG: r.Split("shuffle"),
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := EvaluateClassifier(net, x, labels)
	if acc < 0.97 {
		t.Fatalf("XOR accuracy %.3f (final loss %.4f)", acc, res.FinalLoss)
	}
	// Loss must have decreased substantially.
	if res.EpochLoss[len(res.EpochLoss)-1] > 0.5*res.EpochLoss[0] {
		t.Fatalf("loss barely moved: %v -> %v", res.EpochLoss[0], res.FinalLoss)
	}
}

func TestRegressionLearnsLinearMap(t *testing.T) {
	r := rng.New(7)
	const n, din, dout = 300, 4, 2
	x := tensor.New(n, din)
	x.FillRandNorm(r, 1)
	w := tensor.New(din, dout)
	w.FillRandNorm(r, 1)
	y := tensor.New(n, dout)
	tensor.MatMul(y, x, w)
	net := NewNet(NewDense(din, dout, r.Split("init")))
	_, err := Train(net, x, y, TrainConfig{
		Loss: MSELoss{}, Optimizer: NewAdam(0.05), BatchSize: 32, Epochs: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mse := EvaluateRegression(net, x, y); mse > 1e-3 {
		t.Fatalf("linear map not recovered, MSE=%v", mse)
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	mk := func() (opts map[string]Optimizer) {
		return map[string]Optimizer{
			"sgd":      NewSGD(0.1),
			"momentum": NewMomentum(0.05, 0.9),
			"nesterov": func() *SGD { s := NewMomentum(0.05, 0.9); s.Nesterov = true; return s }(),
			"adam":     NewAdam(0.01),
			"adamw":    NewAdamW(0.01, 1e-4),
			"rmsprop":  NewRMSProp(0.005),
		}
	}
	for name, opt := range mk() {
		t.Run(name, func(t *testing.T) {
			r := rng.New(11)
			x, labels := xorData(r.Split("data"), 200)
			y := OneHot(labels, 2)
			net := MLP(2, []int{12}, 2, Tanh, r.Split("init"))
			res, err := Train(net, x, y, TrainConfig{
				Loss: SoftmaxCELoss{}, Optimizer: opt, BatchSize: 20, Epochs: 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalLoss > 0.8*res.EpochLoss[0] {
				t.Fatalf("%s failed to reduce loss: %v -> %v",
					name, res.EpochLoss[0], res.FinalLoss)
			}
		})
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	r := rng.New(3)
	d := NewDropout(0.5, r)
	x := tensor.New(4, 100)
	x.Fill(1)
	// Eval mode is the identity.
	ye := d.Forward(x, false)
	for i := range ye.Data {
		if ye.Data[i] != 1 {
			t.Fatal("dropout changed values at inference")
		}
	}
	// Train mode zeroes roughly half and rescales the rest to 2.
	yt := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range yt.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 120 || zeros > 280 {
		t.Fatalf("dropout kept ratio off: %d zeros of 400", zeros)
	}
	_ = twos
}

func TestDropoutBackwardMasksGrads(t *testing.T) {
	r := rng.New(4)
	d := NewDropout(0.5, r)
	x := tensor.New(2, 10)
	x.Fill(1)
	y := d.Forward(x, true)
	dout := tensor.New(2, 10)
	dout.Fill(1)
	dx := d.Backward(dout)
	for i := range dx.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("dropout mask inconsistent between forward and backward")
		}
	}
}

func TestBatchNormNormalises(t *testing.T) {
	bn := NewBatchNorm(3)
	r := rng.New(5)
	x := tensor.New(64, 3)
	for i := 0; i < 64; i++ {
		x.Set(r.NormMeanStd(10, 4), i, 0)
		x.Set(r.NormMeanStd(-5, 0.5), i, 1)
		x.Set(r.NormMeanStd(0, 1), i, 2)
	}
	y := bn.Forward(x, true)
	for j := 0; j < 3; j++ {
		var mean, sq float64
		for i := 0; i < 64; i++ {
			mean += y.At(i, j)
		}
		mean /= 64
		for i := 0; i < 64; i++ {
			d := y.At(i, j) - mean
			sq += d * d
		}
		std := math.Sqrt(sq / 64)
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-3 {
			t.Fatalf("feature %d not normalised: mean=%v std=%v", j, mean, std)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm(1)
	r := rng.New(6)
	x := tensor.New(128, 1)
	for i := range x.Data {
		x.Data[i] = r.NormMeanStd(5, 2)
	}
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	// A single far-off sample at inference should be normalised by the
	// running stats, not its own (undefined) batch stats.
	probe := tensor.New(1, 1)
	probe.Data[0] = 5
	y := bn.Forward(probe, false)
	if math.Abs(y.Data[0]) > 0.2 {
		t.Fatalf("running-mean inference off: %v", y.Data[0])
	}
}

func TestNetCloneIndependence(t *testing.T) {
	r := rng.New(8)
	net := MLP(3, []int{4}, 2, ReLU, r)
	clone := net.Clone()
	net.Params()[0].Fill(99)
	if clone.Params()[0].Data[0] == 99 {
		t.Fatal("clone shares parameter storage")
	}
	if clone.NumParams() != net.NumParams() {
		t.Fatal("clone parameter count differs")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	r := rng.New(9)
	net := MLP(4, []int{5}, 3, Tanh, r)
	blob, err := net.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	other := MLP(4, []int{5}, 3, Tanh, rng.New(1234))
	if err := other.UnmarshalWeights(blob); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 4)
	x.FillRandNorm(rng.New(5), 1)
	a := net.Forward(x, false)
	b := other.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded network computes differently")
		}
	}
	// Mismatched architecture must error.
	bad := MLP(4, []int{6}, 3, Tanh, rng.New(1))
	if err := bad.UnmarshalWeights(blob); err == nil {
		t.Fatal("weight load into wrong architecture did not error")
	}
}

func TestTrainValidation(t *testing.T) {
	r := rng.New(10)
	net := MLP(2, nil, 1, ReLU, r)
	x := tensor.New(4, 2)
	y := tensor.New(3, 1)
	if _, err := Train(net, x, y, TrainConfig{Loss: MSELoss{}, Optimizer: NewSGD(0.1)}); err == nil {
		t.Fatal("sample count mismatch not rejected")
	}
	y2 := tensor.New(4, 1)
	if _, err := Train(net, x, y2, TrainConfig{Optimizer: NewSGD(0.1)}); err == nil {
		t.Fatal("missing loss not rejected")
	}
	if _, err := Train(net, x, y2, TrainConfig{Loss: MSELoss{}, Optimizer: NewSGD(0.1), Shuffle: true}); err == nil {
		t.Fatal("shuffle without rng not rejected")
	}
}

func TestLowPrecisionTrainingStillLearns(t *testing.T) {
	// bf16 training should solve XOR nearly as well as fp64.
	r := rng.New(21)
	x, labels := xorData(r.Split("data"), 300)
	y := OneHot(labels, 2)
	net := MLP(2, []int{16}, 2, Tanh, r.Split("init"))
	_, err := Train(net, x, y, TrainConfig{
		Loss: SoftmaxCELoss{}, Optimizer: NewAdam(0.01),
		BatchSize: 32, Epochs: 60, Precision: lowp.BF16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := EvaluateClassifier(net, x, labels); acc < 0.9 {
		t.Fatalf("bf16 XOR accuracy %.3f", acc)
	}
}

func TestFP16LossScalingSkipsOverflow(t *testing.T) {
	r := rng.New(22)
	x, labels := xorData(r.Split("data"), 100)
	y := OneHot(labels, 2)
	net := MLP(2, []int{8}, 2, Tanh, r.Split("init"))
	res, err := Train(net, x, y, TrainConfig{
		Loss: SoftmaxCELoss{}, Optimizer: NewAdam(0.01),
		BatchSize: 25, Epochs: 10, Precision: lowp.FP16, LossScale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With the default 2^15 initial scale some early steps overflow fp16 and
	// must be skipped rather than poisoning the weights.
	for _, p := range net.Params() {
		for _, v := range p.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("weights poisoned despite loss scaling")
			}
		}
	}
	if res.Steps == 0 {
		t.Fatal("all steps skipped")
	}
}

func TestClipGlobalNorm(t *testing.T) {
	g1 := tensor.FromSlice([]float64{3, 0}, 2)
	g2 := tensor.FromSlice([]float64{0, 4}, 2)
	clipGlobalNorm([]*tensor.Tensor{g1, g2}, 1)
	total := 0.0
	for _, g := range []*tensor.Tensor{g1, g2} {
		for _, v := range g.Data {
			total += v * v
		}
	}
	if math.Abs(math.Sqrt(total)-1) > 1e-12 {
		t.Fatalf("global norm after clip %v", math.Sqrt(total))
	}
}

func TestOneHot(t *testing.T) {
	y := OneHot([]int{1, 0, 2}, 3)
	if y.At(0, 1) != 1 || y.At(1, 0) != 1 || y.At(2, 2) != 1 || y.Sum() != 3 {
		t.Fatalf("OneHot wrong: %v", y.Data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	OneHot([]int{3}, 3)
}

// Property: softmax CE loss is non-negative and its gradient rows sum to ~0
// (softmax minus one-hot both sum to 1 per row).
func TestQuickSoftmaxCEGradRowSum(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, c := 1+r.Intn(6), 2+r.Intn(5)
		logits := tensor.New(n, c)
		logits.FillRandNorm(r, 3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(c)
		}
		y := OneHot(labels, c)
		var l SoftmaxCELoss
		if l.Loss(logits, y) < 0 {
			return false
		}
		g := tensor.New(n, c)
		l.Grad(g, logits, y)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < c; j++ {
				s += g.At(i, j)
			}
			if math.Abs(s) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MLP OutDim chains consistently with actual forward shapes.
func TestQuickForwardShapes(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		in := 1 + r.Intn(10)
		h := 1 + r.Intn(10)
		out := 1 + r.Intn(5)
		n := 1 + r.Intn(8)
		net := MLP(in, []int{h}, out, ReLU, r)
		x := tensor.New(n, in)
		x.FillRandNorm(r, 1)
		y := net.Forward(x, false)
		return y.Dim(0) == n && y.Dim(1) == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConvNetTrainsOnPatternDetection(t *testing.T) {
	// Class 1 sequences contain a sharp spike pattern; conv should find it.
	r := rng.New(33)
	const n, length = 240, 32
	x := tensor.New(n, length)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < length; j++ {
			x.Set(r.NormMeanStd(0, 0.3), i, j)
		}
		if i%2 == 0 {
			labels[i] = 1
			pos := 2 + r.Intn(length-6)
			x.Set(3, i, pos)
			x.Set(-3, i, pos+1)
			x.Set(3, i, pos+2)
		}
	}
	conv := NewConv1D(1, length, 8, 5, 1, 2, r.Split("conv"))
	pool := NewMaxPool1D(8, conv.OutLen(), 4, 0)
	net := NewNet(conv, NewActivation(ReLU), pool,
		NewDense(8*pool.OutLen(), 2, r.Split("out")))
	y := OneHot(labels, 2)
	_, err := Train(net, x, y, TrainConfig{
		Loss: SoftmaxCELoss{}, Optimizer: NewAdam(0.005),
		BatchSize: 30, Epochs: 30, Shuffle: true, RNG: r.Split("sh"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := EvaluateClassifier(net, x, labels); acc < 0.95 {
		t.Fatalf("conv pattern accuracy %.3f", acc)
	}
}

func TestEarlyStopCallback(t *testing.T) {
	r := rng.New(44)
	x, labels := xorData(r.Split("d"), 100)
	y := OneHot(labels, 2)
	net := MLP(2, []int{8}, 2, Tanh, r.Split("i"))
	calls := 0
	res, err := Train(net, x, y, TrainConfig{
		Loss: SoftmaxCELoss{}, Optimizer: NewAdam(0.01), Epochs: 50,
		OnEpoch: func(epoch int, loss float64) bool {
			calls++
			return epoch < 4 // stop after epoch 4
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || len(res.EpochLoss) != 5 {
		t.Fatalf("early stop ran %d epochs (%d callbacks)", len(res.EpochLoss), calls)
	}
}

// backwardBytes returns the bytes one warmed Dense.Backward call allocates
// for a batch of n through a layer of the given shape.
func backwardBytes(n, in, out int) uint64 {
	r := rng.New(5)
	d := NewDense(in, out, r)
	x, dout := tensor.New(n, in), tensor.New(n, out)
	x.FillRandNorm(r, 1)
	dout.FillRandNorm(r, 1)
	d.Forward(x, true)
	d.Backward(dout) // warm the kernel's pack buffers
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		d.Backward(dout)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// TestDenseBackwardAllocatesOnlyDX pins that the weight and bias gradients
// accumulate in place: growing Out 64-fold grows dW by 2 MiB, and the bytes
// Backward allocates (dX, which does not depend on Out) must not follow it.
func TestDenseBackwardAllocatesOnlyDX(t *testing.T) {
	const n, in = 16, 256
	dx := uint64(n * in * 8)
	narrow, wide := backwardBytes(n, in, 16), backwardBytes(n, in, 1024)
	if narrow < dx {
		t.Fatalf("Backward allocated %d bytes, less than the %d of the dX it returns", narrow, dx)
	}
	if limit := narrow + 1<<20; wide > limit {
		t.Errorf("Backward allocates %d bytes at Out=1024 against %d at Out=16: a temporary scales with In x Out (dW is %d bytes)",
			wide, narrow, in*1024*8)
	}
}
