package nn

// Coherence of the packed inference weights Dense keeps between
// Forward(x, false) calls: whatever in-repo code writes the weights, the next
// inference call must see them, bit for bit what a net that never kept a
// copy computes.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

var packedDims = struct {
	in, out int
	hidden  []int
}{in: 24, out: 3, hidden: []int{16, 8}}

func packedNet(seed uint64) *Net {
	return MLP(packedDims.in, packedDims.hidden, packedDims.out, ReLU, rng.New(seed))
}

// inferAgainstFresh runs inference on net first (so nothing here can drop a
// stale copy before it is used) and then compares, bitwise, with a freshly
// built net given the same weights and compute mode. 4 rows sit where the
// packed copy changes the kernel (and the rounding), 16 where it does not.
func inferAgainstFresh(t *testing.T, label string, net *Net, f32 bool) {
	t.Helper()
	for _, rows := range []int{4, 16} {
		x := tensor.New(rows, packedDims.in)
		x.FillRandNorm(rng.New(uint64(rows)), 1)
		got := net.Forward(x, false)
		fresh := packedNet(999)
		src := net.Params()
		for i, p := range fresh.Params() {
			copy(p.Data, src[i].Data)
		}
		if f32 {
			fresh.SetComputeF32(true)
		}
		want := fresh.Forward(x, false)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s, %d rows: output %d is %v, a fresh net with the same weights gives %v",
					label, rows, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// warm makes net build and keep its packed copies.
func warm(net *Net) {
	net.Forward(tensor.New(4, packedDims.in), false)
}

// trainStep is one optimizer step the way the parallel trainers take it:
// on params retained since before the net last served inference, so only
// Forward(x, true) and Backward stand between the kept copy and the write.
// evalMid puts an inference call on the same rows between the two (the
// gradient is then of that call, which is no way to train, but Backward must
// still not leave a copy for the write to outlive).
func trainStep(net *Net, params []*tensor.Tensor, opt Optimizer, evalMid bool) {
	r := rng.New(4)
	x, y := tensor.New(8, packedDims.in), tensor.New(8, packedDims.out)
	x.FillRandNorm(r, 1)
	y.FillRandNorm(r, 1)
	net.ZeroGrads()
	out := net.Forward(x, true)
	if evalMid {
		net.Forward(x, false)
	}
	dout := tensor.New(out.Shape()...)
	MSELoss{}.Grad(dout, out, y)
	net.Backward(dout)
	opt.Step(params, net.Grads())
}

func TestPackedWeightsFollowEveryMutator(t *testing.T) {
	other := packedNet(2)
	blob, err := other.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint of other after its first epoch of two, and the config that
	// resumes it: to the end (epochs 2) or not at all (epochs 1, restore only).
	tx, ty := tensor.New(16, packedDims.in), tensor.New(16, packedDims.out)
	tx.FillRandNorm(rng.New(5), 1)
	ty.FillRandNorm(rng.New(6), 1)
	resumeCfg := func(epochs int, state []byte) TrainConfig {
		return TrainConfig{Loss: MSELoss{}, Optimizer: NewSGD(0.1), BatchSize: 8, Epochs: epochs,
			Shuffle: true, RNG: rng.New(3), Resume: state}
	}
	var state []byte
	ckpt := resumeCfg(1, nil)
	ckpt.CheckpointEvery = 1
	ckpt.Checkpoint = func(_ int, b []byte) error { state = b; return nil }
	if _, err := Train(other, tx, ty, ckpt); err != nil {
		t.Fatal(err)
	}
	resume := func(epochs int) func(*testing.T, *Net, []*tensor.Tensor) {
		return func(t *testing.T, net *Net, _ []*tensor.Tensor) {
			if _, err := Train(net, tx, ty, resumeCfg(epochs, state)); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(opt Optimizer, evalMid bool) func(*testing.T, *Net, []*tensor.Tensor) {
		return func(_ *testing.T, net *Net, retained []*tensor.Tensor) { trainStep(net, retained, opt, evalMid) }
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, net *Net, retained []*tensor.Tensor)
		f32    bool
	}{
		{"SGD step", step(NewSGD(0.1), false), false},
		{"momentum step", step(NewMomentum(0.1, 0.9), false), false},
		{"Adam step", step(NewAdam(0.01), false), false},
		{"AdamW step", step(NewAdamW(0.01, 0.1), false), false},
		{"RMSProp step", step(NewRMSProp(0.01), false), false},
		{"step with inference between forward and backward", step(NewSGD(0.1), true), false},
		{"UnmarshalWeights", func(t *testing.T, net *Net, _ []*tensor.Tensor) {
			if err := net.UnmarshalWeights(blob); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"Resume from a checkpoint and train on", resume(2), false},
		{"Resume at the final epoch (restore only)", resume(1), false},
		{"SetComputeF32 on", func(t *testing.T, net *Net, _ []*tensor.Tensor) { net.SetComputeF32(true) }, true},
		{"SetComputeF32 on, step, off", func(t *testing.T, net *Net, retained []*tensor.Tensor) {
			net.SetComputeF32(true)
			warm(net)
			trainStep(net, retained, NewSGD(0.1), false)
			net.SetComputeF32(false)
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := packedNet(1)
			retained := net.Params()
			warm(net)
			c.mutate(t, net, retained)
			inferAgainstFresh(t, c.name, net, c.f32)
		})
	}
}

// TestPackedWeightsAcrossClones pins that a clone shares the packed copy
// without sharing its fate: clones made before and after the copy exists
// agree, and training either side leaves the other on its own weights.
func TestPackedWeightsAcrossClones(t *testing.T) {
	net := packedNet(1)
	before := net.Clone()
	warm(net)
	after := net.Clone()
	if d, c := net.Layers[0].(*Dense), after.Layers[0].(*Dense); c.packed == nil || c.packed != d.packed {
		t.Fatalf("a clone of a warmed net holds packed copy %p, the original %p: want one shared copy", c.packed, d.packed)
	}
	inferAgainstFresh(t, "clone made before the copy exists", before, false)
	inferAgainstFresh(t, "clone made after the copy exists", after, false)

	warm(net)
	sibling := net.Clone()
	trainStep(net, net.Params(), NewAdam(0.01), false)
	inferAgainstFresh(t, "original trained after Clone", net, false)
	inferAgainstFresh(t, "clone of an original trained after Clone", sibling, false)

	trainStep(sibling, sibling.Params(), NewAdam(0.01), false)
	warm(net)
	inferAgainstFresh(t, "clone trained after Clone", sibling, false)
	inferAgainstFresh(t, "original of a clone trained after Clone", net, false)
}

// TestPackedWeightsStaleWriteIsCaught is the rule next to Layer.Params: a
// write through a retained pointer with no Params() call before the next
// inference is the one sequence the layer cannot see. Race builds panic on
// it; calling Params() again, as the rule says, makes it legal everywhere.
func TestPackedWeightsStaleWriteIsCaught(t *testing.T) {
	net := packedNet(1)
	retained := net.Params()
	warm(net)
	retained[0].Data[0]++
	if tensor.RaceEnabled {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("inference after an unannounced weight write did not panic in a race build")
				}
			}()
			warm(net)
		}()
	}
	net.Params()
	inferAgainstFresh(t, "write through a retained pointer, then Params()", net, false)
}

// TestInferenceForwardAllocatesOnlyLayerOutputs pins that the packed copy is
// kept, not rebuilt: a second Net.Forward(x, false) at the serving batch of
// 16 through serve_saturate's MLP allocates its five layer outputs, tensor
// headers and, after a GC emptied the kernel's pool, a 32 KiB A block; one
// rebuilt copy of the smallest hidden layer alone is 1 MiB.
func TestInferenceForwardAllocatesOnlyLayerOutputs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race builds re-pack on every call to check the kept copy")
	}
	saved := tensor.MaxProcs
	tensor.MaxProcs = 1
	defer func() { tensor.MaxProcs = saved }()
	net := MLP(1024, []int{512, 256}, 4, ReLU, rng.New(8))
	x := tensor.New(16, 1024)
	x.FillRandNorm(rng.New(9), 1)
	net.Forward(x, false)
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		net.Forward(x, false)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / calls
	outputs := uint64(16 * (512 + 512 + 256 + 256 + 4) * 8)
	if got < outputs || got > outputs+64<<10 {
		t.Errorf("a warmed Forward(x, false) allocates %d bytes, its layer outputs are %d", got, outputs)
	}
}
