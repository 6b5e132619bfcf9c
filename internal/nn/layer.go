// Package nn implements the neural-network stack used by the driver
// problems: a layer zoo (dense, 1-D/2-D convolution, pooling, batch norm,
// dropout, activations) with full manual backpropagation, loss functions,
// first-order optimizers, and a precision-aware training loop.
//
// The design is deliberately framework-like but minimal: layers own their
// parameters and gradients, a Net is an ordered layer list, and training
// utilities live in train.go. All math runs on internal/tensor; reduced
// precision is emulated through internal/lowp.
package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes a batch
// (axis 0 is the sample axis) and returns the layer output; Backward consumes
// dL/d(output) and returns dL/d(input), accumulating parameter gradients
// internally. Layers are stateful across a Forward/Backward pair and are NOT
// safe for concurrent use; replicas are created via Clone for parallel
// training.
type Layer interface {
	// Name identifies the layer type and its dimensions for diagnostics.
	Name() string
	// OutDim returns the per-sample output element count given the
	// per-sample input element count, or panics if incompatible.
	OutDim(inDim int) int
	// Forward runs the layer on x (N x inDim). train enables
	// training-only behaviour (dropout masks, batch-norm batch stats).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates dout (N x outDim) and returns dL/dx.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (may be empty). A
	// layer may keep a copy of its weights laid out for inference between
	// Forward(x, false) calls, and every call that can precede a weight
	// write, Params included, drops it. So one rule for code that retains
	// these pointers: after writing a parameter through a retained pointer,
	// call Params() again before the next inference call. Race builds
	// (`go test -race`) panic on an inference call that breaks it.
	Params() []*tensor.Tensor
	// Grads returns gradient tensors parallel to Params.
	Grads() []*tensor.Tensor
	// Clone returns an independent copy with the same parameter VALUES
	// but separate storage (for data-parallel replicas).
	Clone() Layer
}

// Dense is a fully connected layer: y = x·W + b, W (in x out), b (out).
type Dense struct {
	In, Out int
	W, B    *tensor.Tensor
	dW, dB  *tensor.Tensor
	x       *tensor.Tensor // cached input for backward
	f32     *denseF32      // non-nil when the float32 compute path is on
	// packed is W packed for small-batch inference: built by the first
	// Forward(x, false) of 2..tensor.PackedMaxRows rows, reused by the
	// next, shared with clones (it is immutable), and dropped by every call
	// that can precede a write to W (see Layer.Params).
	packed *tensor.PackedB
}

// NewDense creates a dense layer with He-normal weight initialisation.
func NewDense(in, out int, r *rng.Stream) *Dense {
	d := &Dense{In: in, Out: out,
		W: tensor.New(in, out), B: tensor.New(out),
		dW: tensor.New(in, out), dB: tensor.New(out)}
	HeNormal(d.W, in, r)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// OutDim implements Layer.
func (d *Dense) OutDim(inDim int) int {
	if inDim != d.In {
		panic(fmt.Sprintf("nn: %s given input dim %d", d.Name(), inDim))
	}
	return d.Out
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	d.x = x
	if d.f32 != nil {
		return d.forwardF32(x, n)
	}
	y := tensor.New(n, d.Out)
	if train {
		d.packed = nil
	}
	if !train && n >= 2 && n <= tensor.PackedMaxRows {
		if d.packed == nil {
			d.packed = tensor.PackB(d.W)
		}
		tensor.MatMulPacked(y, x.Reshape(n, d.In), d.W, d.packed)
	} else {
		tensor.MatMul(y, x.Reshape(n, d.In), d.W)
	}
	tensor.AddRowVector(y, y, d.B)
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n := dout.Dim(0)
	d.packed = nil
	d.ensureGrads()
	if d.f32 != nil {
		return d.backwardF32(dout, n)
	}
	x := d.x.Reshape(n, d.In)
	// dW += xᵀ·dout and dB += Σrows(dout), straight into the accumulators
	// (accumulate, not overwrite, so replicas can micro-batch).
	tensor.AddMatMulTransA(d.dW, x, dout)
	tensor.AddSumRows(d.dB, dout)
	dx := tensor.New(n, d.In)
	tensor.MatMulTransB(dx, dout, d.W)
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor {
	// A pure read when there is nothing to drop: trainers call Params on a
	// net other goroutines are cloning.
	if d.packed != nil {
		d.packed = nil
	}
	return []*tensor.Tensor{d.W, d.B}
}

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor {
	d.ensureGrads()
	return []*tensor.Tensor{d.dW, d.dB}
}

// ensureGrads allocates a clone's gradient accumulators when it first needs
// them, so a clone that only ever runs inference (every serve replica, the
// pool's master copies) does not carry a second weights' worth of zeros.
func (d *Dense) ensureGrads() {
	if d.dW == nil {
		d.dW, d.dB = tensor.New(d.In, d.Out), tensor.New(d.Out)
	}
}

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	c := &Dense{In: d.In, Out: d.Out, W: d.W.Clone(), B: d.B.Clone()}
	c.SetComputeF32(d.f32 != nil) // same compute mode, fresh buffers
	c.packed = d.packed
	return c
}

// Activation kinds supported by the Activation layer.
type ActKind int

// Supported activation functions.
const (
	ReLU ActKind = iota
	LeakyReLU
	Sigmoid
	Tanh
	GELU
)

// String returns the activation's conventional name.
func (k ActKind) String() string {
	switch k {
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leaky_relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case GELU:
		return "gelu"
	default:
		return "act?"
	}
}

// ParseAct converts an activation name to its kind.
func ParseAct(s string) (ActKind, error) {
	for _, k := range []ActKind{ReLU, LeakyReLU, Sigmoid, Tanh, GELU} {
		if k.String() == s {
			return k, nil
		}
	}
	return ReLU, fmt.Errorf("nn: unknown activation %q", s)
}

// Activation applies a pointwise nonlinearity.
type Activation struct {
	Kind ActKind
	out  *tensor.Tensor // cached output (ReLU/Sigmoid/Tanh use out-form grads)
	in   *tensor.Tensor
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(kind ActKind) *Activation { return &Activation{Kind: kind} }

// Name implements Layer.
func (a *Activation) Name() string { return a.Kind.String() }

// OutDim implements Layer.
func (a *Activation) OutDim(inDim int) int { return inDim }

// Forward implements Layer.
func (a *Activation) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	a.in = x
	y := tensor.New(x.Shape()...)
	switch a.Kind {
	case ReLU:
		tensor.Apply(y, x, func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
	case LeakyReLU:
		tensor.Apply(y, x, func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0.01 * v
		})
	case Sigmoid:
		tensor.Apply(y, x, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	case Tanh:
		tensor.Apply(y, x, math.Tanh)
	case GELU:
		tensor.Apply(y, x, geluFn)
	}
	a.out = y
	return y
}

func geluFn(v float64) float64 {
	// tanh approximation of GELU.
	return 0.5 * v * (1 + math.Tanh(0.7978845608028654*(v+0.044715*v*v*v)))
}

// Backward implements Layer.
func (a *Activation) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dout.Shape()...)
	switch a.Kind {
	case ReLU:
		for i := range dx.Data {
			if a.in.Data[i] > 0 {
				dx.Data[i] = dout.Data[i]
			}
		}
	case LeakyReLU:
		for i := range dx.Data {
			if a.in.Data[i] > 0 {
				dx.Data[i] = dout.Data[i]
			} else {
				dx.Data[i] = 0.01 * dout.Data[i]
			}
		}
	case Sigmoid:
		for i := range dx.Data {
			s := a.out.Data[i]
			dx.Data[i] = dout.Data[i] * s * (1 - s)
		}
	case Tanh:
		for i := range dx.Data {
			th := a.out.Data[i]
			dx.Data[i] = dout.Data[i] * (1 - th*th)
		}
	case GELU:
		const c = 0.7978845608028654
		for i := range dx.Data {
			v := a.in.Data[i]
			u := c * (v + 0.044715*v*v*v)
			t := math.Tanh(u)
			du := c * (1 + 3*0.044715*v*v)
			dx.Data[i] = dout.Data[i] * (0.5*(1+t) + 0.5*v*(1-t*t)*du)
		}
	}
	return dx
}

// Params implements Layer.
func (a *Activation) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (a *Activation) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (a *Activation) Clone() Layer { return &Activation{Kind: a.Kind} }

// Dropout zeroes a random fraction Rate of activations during training and
// rescales the survivors (inverted dropout), so inference needs no change.
type Dropout struct {
	Rate float64
	rng  *rng.Stream
	mask []bool
}

// NewDropout creates a dropout layer drawing masks from r.
func NewDropout(rate float64, r *rng.Stream) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate must be in [0,1)")
	}
	return &Dropout{Rate: rate, rng: r}
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("Dropout(%.2f)", d.Rate) }

// RNGState exposes the mask stream's cursor for checkpointing.
func (d *Dropout) RNGState() [4]uint64 { return d.rng.State() }

// SetRNGState restores a mask-stream cursor captured by RNGState.
func (d *Dropout) SetRNGState(s [4]uint64) { d.rng.SetState(s) }

// OutDim implements Layer.
func (d *Dropout) OutDim(inDim int) int { return inDim }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x
	}
	y := tensor.New(x.Shape()...)
	if cap(d.mask) < x.Len() {
		d.mask = make([]bool, x.Len())
	}
	d.mask = d.mask[:x.Len()]
	scale := 1 / (1 - d.Rate)
	for i, v := range x.Data {
		keep := !d.rng.Bernoulli(d.Rate)
		d.mask[i] = keep
		if keep {
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return dout
	}
	dx := tensor.New(dout.Shape()...)
	scale := 1 / (1 - d.Rate)
	for i, v := range dout.Data {
		if d.mask[i] {
			dx.Data[i] = v * scale
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (d *Dropout) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (d *Dropout) Clone() Layer {
	return &Dropout{Rate: d.Rate, rng: d.rng.Split("dropout-clone")}
}

// Flatten reshapes (N, ...) to (N, prod(...)). With contiguous row-major
// tensors this is a pure view change.
type Flatten struct{ inShape []int }

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }

// OutDim implements Layer.
func (f *Flatten) OutDim(inDim int) int { return inDim }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return dout.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{} }
