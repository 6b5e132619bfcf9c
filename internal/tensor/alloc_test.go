package tensor

// Steady-state allocation pins for the GEMM and im2col hot loops, both
// precisions. A kernel that allocates per call would silently re-introduce
// GC pressure in training's inner loop; these tests make that a build
// break, not a profiler finding.
//
// MaxProcs is pinned to 1: the parallel paths hand chunks to ParallelFor,
// whose closure and goroutine bookkeeping allocate by design. The serial
// fast paths in each backend return before any closure literal is
// evaluated, which is exactly what the single-core training configuration
// runs.

import (
	"testing"

	"repro/internal/rng"
)

// pinSerial forces the closure-free serial kernel paths and restores the
// previous setting on cleanup.
func pinSerial(t *testing.T) {
	t.Helper()
	if RaceEnabled {
		t.Skip("race detector makes sync.Pool drop entries; alloc pins only hold in normal builds")
	}
	saved := MaxProcs
	MaxProcs = 1
	t.Cleanup(func() { MaxProcs = saved })
}

func assertZeroAllocs(t *testing.T, label string, fn func()) {
	t.Helper()
	fn() // warm: grow pooled scratch buffers once
	if n := testing.AllocsPerRun(10, fn); n != 0 {
		t.Errorf("%s: %v allocs per warmed-up call, want 0", label, n)
	}
}

func TestBlockedF32GemmZeroAllocs(t *testing.T) {
	pinSerial(t)
	bk, err := BackendByName("blocked")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(40)
	m, k, n := 65, 70, 33
	a, b := randF32(r, m, k), randF32(r, k, n)
	at, bt := randF32(r, k, m), randF32(r, n, k)
	dst := NewF32(m, n)
	assertZeroAllocs(t, "blocked MatMulF32", func() { bk.MatMulF32(dst, a, b) })
	assertZeroAllocs(t, "blocked MatMulTransAF32", func() { bk.MatMulTransAF32(dst, at, b) })
	assertZeroAllocs(t, "blocked MatMulTransBF32", func() { bk.MatMulTransBF32(dst, a, bt) })
}

func TestPackedF32GemmZeroAllocs(t *testing.T) {
	pinSerial(t)
	bk, err := BackendByName("packed")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	// Spans two mc row panels and two kc k-panels, so the pooled A and B
	// pack buffers both reach their steady-state size during the warm call.
	m, k, n := mc+3, kc+5, 2*nr+1
	a, b := randF32(r, m, k), randF32(r, k, n)
	at, bt := randF32(r, k, m), randF32(r, n, k)
	dst := NewF32(m, n)
	assertZeroAllocs(t, "packed MatMulF32", func() { bk.MatMulF32(dst, a, b) })
	assertZeroAllocs(t, "packed MatMulTransAF32", func() { bk.MatMulTransAF32(dst, at, b) })
	assertZeroAllocs(t, "packed MatMulTransBF32", func() { bk.MatMulTransBF32(dst, a, bt) })
}

// TestGemmF64ZeroAllocs pins the float64 entry points at the first-layer
// shapes of the benchmark's two training workloads: train_dense (batch 64,
// 1024 -> 512) and train_dp_stream (per-rank batch 8, 4096 -> 16), forward,
// weight gradient (plain and accumulate form) and input gradient.
func TestGemmF64ZeroAllocs(t *testing.T) {
	pinSerial(t)
	r := rng.New(43)
	for _, s := range [][3]int{{64, 1024, 512}, {8, 4096, 16}} {
		batch, in, out := s[0], s[1], s[2]
		label := shapeLabel(batch, in, out)
		x, w, dy := randT(r, batch, in), randT(r, in, out), randT(r, batch, out)
		y, dw, dx := New(batch, out), New(in, out), New(batch, in)
		assertZeroAllocs(t, "MatMul "+label, func() { MatMul(y, x, w) })
		assertZeroAllocs(t, "MatMulTransA "+label, func() { MatMulTransA(dw, x, dy) })
		assertZeroAllocs(t, "AddMatMulTransA "+label, func() { AddMatMulTransA(dw, x, dy) })
		assertZeroAllocs(t, "MatMulTransB "+label, func() { MatMulTransB(dx, dy, w) })
	}
}

// TestMatMulPackedZeroAllocs pins the serving shape: serve_saturate's first
// layer at MaxBatch rows (16 x 1024 x 512) against a pre-packed B draws only
// the pooled A block.
func TestMatMulPackedZeroAllocs(t *testing.T) {
	pinSerial(t)
	r := rng.New(44)
	x, w, y := randT(r, 16, 1024), randT(r, 1024, 512), New(16, 512)
	p := PackB(w)
	assertZeroAllocs(t, "MatMulPacked 16x1024x512", func() { MatMulPacked(y, x, w, p) })
}

func TestIm2ColConvF32ZeroAllocs(t *testing.T) {
	pinSerial(t)
	r := rng.New(42)
	channels, h, w, kernel, stride, pad, filters := 3, 14, 14, 3, 1, 1, 8
	oh, ow := Conv2DOutDims(h, w, kernel, stride, pad)
	in := randF32(r, channels*h*w)
	wt := randF32(r, filters, channels*kernel*kernel)
	col := NewF32(channels*kernel*kernel, oh*ow)
	out := NewF32(filters, oh*ow)
	din := NewF32(channels * h * w)
	assertZeroAllocs(t, "im2col conv f32", func() {
		Im2Col2DF32(col, in, channels, h, w, kernel, stride, pad)
		MatMulF32Serial(out, wt, col)
	})
	assertZeroAllocs(t, "col2im f32", func() {
		din.Zero()
		Col2Im2DF32(din, col, channels, h, w, kernel, stride, pad)
	})
}
