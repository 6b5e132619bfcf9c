package nn

// Float32 compute paths for the GEMM-heavy layers. With SetComputeF32(true),
// Dense and Conv2D run their forward/backward matrix products on the float32
// kernel backend pinned in internal/tensor (see tensor.SetBackend), while
// every parameter, gradient, and optimizer state tensor stays float64 — the
// master-weights discipline of mixed-precision training. Weight copies are
// re-narrowed from the float64 masters on every forward, so optimizer steps
// are always visible to the fast path; gradients are widened (exactly) back
// to float64 before accumulation.
//
// The layer-local F32 buffers are reused across steps, so the steady-state
// cost of the conversion boundary is memory traffic, not allocation.

import (
	"repro/internal/lowp"
	"repro/internal/tensor"
)

// F32Computer is implemented by layers with a float32 compute path.
type F32Computer interface {
	// SetComputeF32 toggles float32 kernel compute. Off (the default) is
	// the pure float64 path; flipping the mode drops any cached buffers.
	SetComputeF32(on bool)
}

// SetComputeF32 toggles the float32 compute path on every layer that has
// one (Dense, Conv2D); other layers are untouched. It returns the number of
// layers switched, so callers can assert the net actually has a fast path.
func (n *Net) SetComputeF32(on bool) int {
	switched := 0
	for _, l := range n.Layers {
		if fc, ok := l.(F32Computer); ok {
			fc.SetComputeF32(on)
			switched++
		}
	}
	return switched
}

// ensureF32 returns buf if it already has exactly the wanted shape, else a
// fresh tensor. Layers call it every step; after the first step at a given
// batch size it never allocates.
func ensureF32(buf *tensor.F32, shape ...int) *tensor.F32 {
	if buf != nil && len(buf.Shape()) == len(shape) {
		same := true
		for i, d := range shape {
			if buf.Dim(i) != d {
				same = false
				break
			}
		}
		if same {
			return buf
		}
	}
	return tensor.NewF32(shape...)
}

// denseF32 holds the Dense layer's float32 working set.
type denseF32 struct {
	w, b         *tensor.F32 // narrowed master weights, refreshed per forward
	x, y         *tensor.F32 // batch activations
	dout, dw, dx *tensor.F32 // backward working set
}

// SetComputeF32 implements F32Computer.
func (d *Dense) SetComputeF32(on bool) {
	d.packed = nil
	if on {
		d.f32 = &denseF32{}
	} else {
		d.f32 = nil
	}
}

// forwardF32 is Forward on the float32 kernel path: y = x·W + b with the
// GEMM on the pinned backend, returned widened to float64.
func (d *Dense) forwardF32(x *tensor.Tensor, n int) *tensor.Tensor {
	s := d.f32
	s.w = ensureF32(s.w, d.In, d.Out)
	lowp.F32FromTensor(s.w, d.W)
	s.b = ensureF32(s.b, d.Out)
	lowp.F32FromTensor(s.b, d.B)
	s.x = ensureF32(s.x, n, d.In)
	lowp.F32FromTensor(s.x, x.Reshape(n, d.In))
	s.y = ensureF32(s.y, n, d.Out)
	tensor.MatMulF32(s.y, s.x, s.w)
	for i := 0; i < n; i++ {
		row := s.y.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += s.b.Data[j]
		}
	}
	y := tensor.New(n, d.Out)
	lowp.TensorFromF32(y, s.y)
	return y
}

// backwardF32 mirrors Backward with the three GEMMs in float32. dB is a
// cheap reduction and stays float64; dW and dx cross back through exact
// widening, with dW accumulated into the float64 gradient like the f64 path.
func (d *Dense) backwardF32(dout *tensor.Tensor, n int) *tensor.Tensor {
	s := d.f32
	s.dout = ensureF32(s.dout, n, d.Out)
	lowp.F32FromTensor(s.dout, dout)
	s.dw = ensureF32(s.dw, d.In, d.Out)
	tensor.MatMulTransAF32(s.dw, s.x, s.dout)
	lowp.AddTensorFromF32(d.dW, s.dw)
	tensor.AddSumRows(d.dB, dout)
	s.dx = ensureF32(s.dx, n, d.In)
	tensor.MatMulTransBF32(s.dx, s.dout, s.w)
	dx := tensor.New(n, d.In)
	lowp.TensorFromF32(dx, s.dx)
	return dx
}

// conv2DF32 holds the Conv2D layer's float32 working set. cols is indexed
// by sample like the float64 cache; the per-worker scratch lives on the
// stack of the ParallelFor body.
type conv2DF32 struct {
	wt, b *tensor.F32
	cols  []*tensor.F32
}

// SetComputeF32 implements F32Computer.
func (c *Conv2D) SetComputeF32(on bool) {
	if on {
		c.f32 = &conv2DF32{}
	} else {
		c.f32 = nil
	}
}

// forwardF32 runs the im2col convolution with float32 lowering and GEMM.
// Parallelism stays per-sample (the f64 layout); each sample's GEMM uses the
// serial blocked f32 kernel so worker goroutines do not nest ParallelFor.
func (c *Conv2D) forwardF32(x *tensor.Tensor, n int) *tensor.Tensor {
	s := c.f32
	kk := c.Channels * c.Kernel * c.Kernel
	out2 := c.oh * c.ow
	s.wt = ensureF32(s.wt, c.Filters, kk)
	lowp.F32FromTensor(s.wt, c.Wt)
	s.b = ensureF32(s.b, c.Filters)
	lowp.F32FromTensor(s.b, c.B)
	if len(s.cols) < n {
		s.cols = make([]*tensor.F32, n)
	}
	y := tensor.New(n, c.Filters*out2)
	tensor.ParallelFor(n, func(lo, hi int) {
		in := tensor.NewF32(c.Channels * c.H * c.W)
		out := tensor.NewF32(c.Filters, out2)
		for sm := lo; sm < hi; sm++ {
			if s.cols[sm] == nil {
				s.cols[sm] = tensor.NewF32(kk, out2)
			}
			col := s.cols[sm]
			lowp.F32FromTensor(in, x.Row(sm))
			tensor.Im2Col2DF32(col, in, c.Channels, c.H, c.W, c.Kernel, c.Stride, c.Pad)
			tensor.MatMulF32Serial(out, s.wt, col)
			for f := 0; f < c.Filters; f++ {
				b := s.b.Data[f]
				row := out.Data[f*out2 : (f+1)*out2]
				for i := range row {
					row[i] += b
				}
			}
			lowp.TensorFromF32(y.Row(sm).Reshape(c.Filters, out2), out)
		}
	})
	return y
}

// backwardF32 mirrors Backward with float32 GEMMs and col2im. Per-worker
// weight-gradient partials accumulate in float64 (exact widening per
// sample), and dB stays a float64 reduction, so the gradient contract
// matches the f64 path: only GEMM arithmetic narrows.
func (c *Conv2D) backwardF32(dout *tensor.Tensor, n int) *tensor.Tensor {
	s := c.f32
	kk := c.Channels * c.Kernel * c.Kernel
	out2 := c.oh * c.ow
	dx := tensor.New(n, c.Channels*c.H*c.W)
	type acc struct{ dW, dB *tensor.Tensor }
	accs := make([]*acc, n)
	tensor.ParallelFor(n, func(lo, hi int) {
		a := &acc{dW: tensor.New(c.Filters, kk), dB: tensor.New(c.Filters)}
		accs[lo] = a
		dy := tensor.NewF32(c.Filters, out2)
		dw := tensor.NewF32(c.Filters, kk)
		dcol := tensor.NewF32(kk, out2)
		din := tensor.NewF32(c.Channels * c.H * c.W)
		for sm := lo; sm < hi; sm++ {
			dyRow := dout.Row(sm).Reshape(c.Filters, out2)
			lowp.F32FromTensor(dy, dyRow)
			col := s.cols[sm]
			tensor.MatMulTransBF32Serial(dw, dy, col)
			lowp.AddTensorFromF32(a.dW, dw)
			for f := 0; f < c.Filters; f++ {
				sum := 0.0
				row := dyRow.Data[f*out2 : (f+1)*out2]
				for _, v := range row {
					sum += v
				}
				a.dB.Data[f] += sum
			}
			tensor.MatMulTransAF32Serial(dcol, s.wt, dy)
			din.Zero()
			tensor.Col2Im2DF32(din, dcol, c.Channels, c.H, c.W, c.Kernel, c.Stride, c.Pad)
			lowp.AddTensorFromF32(dx.Row(sm), din)
		}
	})
	for _, a := range accs {
		if a == nil {
			continue
		}
		tensor.AddScaled(c.dW, a.dW, 1)
		tensor.AddScaled(c.dB, a.dB, 1)
	}
	return dx
}
