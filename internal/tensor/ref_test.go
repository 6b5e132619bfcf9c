package tensor

// Naive reference kernels and edge-shape contract tests.
//
// The references here are deliberately written in flat-slice index
// arithmetic — independent of both the production kernels (gemm.go) and the
// At/Set-based naiveMatMul in tensor_test.go — so a bug in the shared
// indexing helpers cannot cancel out of the comparison. The fuzz targets in
// fuzz_test.go compare the production kernels against these on arbitrary
// shapes; the table tests below lock the contract at the block boundaries
// (0, 1, blockM-1, blockM, blockM+1) where tiled kernels historically break.
//
// Contract under test, for all four matmul kernels and MatVec: dst is fully
// overwritten — prior contents (the tests poison dst with NaN) never leak
// into the result, including the K=0 case where the result is all zeros.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// refMatMul computes a (M x K) @ b (K x N) naively.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// refMatMulTransA computes aᵀ @ b for a (K x M), b (K x N).
func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.Data[kk*m+i] * b.Data[kk*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// refMatMulTransB computes a @ bᵀ for a (M x K), b (N x K).
func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// refConv1D computes a 1-D convolution by direct sliding window: in is
// (C, L) flattened, w is (F, C*K), out is (F, Lout). Positions outside
// [0, L) contribute zero, matching Im2Col1D's padding semantics.
func refConv1D(in, w *Tensor, channels, inLen, kernel, stride, pad int) *Tensor {
	outLen := Conv1DOutLen(inLen, kernel, stride, pad)
	filters := w.Dim(0)
	out := New(filters, outLen)
	for f := 0; f < filters; f++ {
		for o := 0; o < outLen; o++ {
			s := 0.0
			for c := 0; c < channels; c++ {
				for k := 0; k < kernel; k++ {
					src := o*stride + k - pad
					if src >= 0 && src < inLen {
						s += w.Data[f*channels*kernel+c*kernel+k] * in.Data[c*inLen+src]
					}
				}
			}
			out.Data[f*outLen+o] = s
		}
	}
	return out
}

// poisoned returns a tensor pre-filled with NaN, so any output element the
// kernel fails to overwrite shows up as NaN in the comparison.
func poisoned(shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(math.NaN())
	return t
}

// expectClose fails if got and want differ anywhere by more than tol, or if
// either holds a NaN (maxDiff alone would let NaN slip through: NaN > tol
// is false).
func expectClose(t *testing.T, got, want *Tensor, tol float64, label string) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: size %d vs %d", label, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		d := math.Abs(got.Data[i] - want.Data[i])
		if math.IsNaN(got.Data[i]) || math.IsNaN(want.Data[i]) || d > tol {
			t.Fatalf("%s: element %d got %v want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// edgeDims are the shapes where cache-tiled kernels break: empty, singleton,
// and the three sizes straddling the block boundary.
var edgeDims = []int{0, 1, blockM - 1, blockM, blockM + 1}

func TestMatMulEdgeShapes(t *testing.T) {
	r := rng.New(10)
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				a := randT(r, m, k)
				b := randT(r, k, n)
				dst := poisoned(m, n)
				MatMul(dst, a, b)
				expectClose(t, dst, refMatMul(a, b), 1e-9,
					"MatMul "+shapeLabel(m, k, n))
			}
		}
	}
}

func TestMatMulTransAEdgeShapes(t *testing.T) {
	r := rng.New(11)
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				a := randT(r, k, m) // stored transposed
				b := randT(r, k, n)
				dst := poisoned(m, n)
				MatMulTransA(dst, a, b)
				expectClose(t, dst, refMatMulTransA(a, b), 1e-9,
					"MatMulTransA "+shapeLabel(m, k, n))
			}
		}
	}
}

func TestMatMulTransBEdgeShapes(t *testing.T) {
	r := rng.New(12)
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				a := randT(r, m, k)
				b := randT(r, n, k) // stored transposed
				dst := poisoned(m, n)
				MatMulTransB(dst, a, b)
				expectClose(t, dst, refMatMulTransB(a, b), 1e-9,
					"MatMulTransB "+shapeLabel(m, k, n))
			}
		}
	}
}

// multiTileDims straddle the SECOND block boundary, exercising kernels that
// must visit several tiles per dimension and accumulate partial k-tile sums
// — exactly what the blocked MatMulTransB rewrite added.
var multiTileDims = []int{2*blockM - 1, 2 * blockM, 2*blockM + 1}

func TestMatMulTransBMultiTileShapes(t *testing.T) {
	r := rng.New(19)
	for _, m := range multiTileDims {
		for _, k := range multiTileDims {
			for _, n := range multiTileDims {
				a := randT(r, m, k)
				b := randT(r, n, k)
				dst := poisoned(m, n)
				MatMulTransB(dst, a, b)
				expectClose(t, dst, refMatMulTransB(a, b), 1e-9,
					"MatMulTransB "+shapeLabel(m, k, n))
			}
		}
	}
}

// TestMatMulTransBAccumulatesAcrossKTiles pins the blocked rewrite's
// accumulate contract on a dirty dst: with K spanning several blockK tiles,
// a kernel that overwrote instead of accumulating (or skipped a tile, or
// forgot dst.Zero) produces a wrong or NaN result.
func TestMatMulTransBAccumulatesAcrossKTiles(t *testing.T) {
	r := rng.New(20)
	k := 3*blockK + 5
	a := randT(r, 7, k)
	b := randT(r, 9, k)
	dst := poisoned(7, 9)
	MatMulTransB(dst, a, b)
	expectClose(t, dst, refMatMulTransB(a, b), 1e-9, "MatMulTransB k-tiles")
}

func TestMatVecEdgeShapes(t *testing.T) {
	r := rng.New(13)
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			a := randT(r, m, k)
			x := randT(r, k)
			dst := poisoned(m)
			MatVec(dst, a, x)
			want := refMatMul(a, x.Reshape(k, 1)).Reshape(m)
			expectClose(t, dst, want, 1e-9, "MatVec "+shapeLabel(m, k, 1))
		}
	}
}

// TestMatMulTransBOverwritesDst pins the contract fix directly: before the
// fix MatMulTransB skipped dst.Zero(), which happened to work (plain
// overwrite) but meant the K=0 path wrote 0.0 via `=` while its siblings
// wrote it via Zero() — any blocked rewrite accumulating partial tiles
// would have silently produced garbage on a dirty dst.
func TestMatMulTransBOverwritesDst(t *testing.T) {
	a := randT(rng.New(14), 3, 0)
	b := randT(rng.New(15), 5, 0)
	dst := poisoned(3, 5)
	MatMulTransB(dst, a, b)
	expectClose(t, dst, New(3, 5), 0, "MatMulTransB K=0 on poisoned dst")
}

// TestConv1DEdgeShapes checks the im2col-lowered convolution (the path the
// nn package uses: Im2Col1D then MatMul) against the direct sliding-window
// reference, including zero-length inputs and outputs.
func TestConv1DEdgeShapes(t *testing.T) {
	r := rng.New(16)
	cases := []struct{ channels, inLen, kernel, stride, pad, filters int }{
		{1, 0, 1, 1, 0, 1},  // empty input, empty output
		{1, 1, 1, 1, 0, 1},  // singleton everything
		{1, 1, 3, 1, 1, 2},  // kernel wider than input, rescued by padding
		{2, 7, 3, 1, 0, 3},  // valid conv
		{2, 7, 3, 1, 1, 3},  // same-ish conv
		{3, 16, 5, 2, 2, 4}, // strided
		{1, 4, 4, 4, 0, 1},  // kernel == input, single output
		{2, 63, 3, 1, 1, 5}, // block-boundary output length
	}
	for _, c := range cases {
		outLen := Conv1DOutLen(c.inLen, c.kernel, c.stride, c.pad)
		in := randT(r, c.channels*c.inLen)
		w := randT(r, c.filters, c.channels*c.kernel)
		col := poisoned(c.channels*c.kernel, outLen)
		Im2Col1D(col, in, c.channels, c.inLen, c.kernel, c.stride, c.pad)
		got := poisoned(c.filters, outLen)
		MatMul(got, w, col)
		want := refConv1D(in, w, c.channels, c.inLen, c.kernel, c.stride, c.pad)
		expectClose(t, got, want, 1e-9,
			"Conv1D "+shapeLabel(c.channels, c.inLen, c.kernel))
	}
}

func shapeLabel(a, b, c int) string {
	return fmt.Sprintf("[%d %d %d]", a, b, c)
}
