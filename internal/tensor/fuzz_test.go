package tensor

// Fuzz targets comparing the float64 GEMM entry points (blocked below the
// small-M cutoff, packed from it; FuzzMatMul also runs MatMulPacked, packed
// from 2 rows, on every input) against the naive flat-index references in
// ref_test.go. The fuzzer drives shapes and a data
// seed; values come from the repo's deterministic rng so every crash
// reproduces from its corpus entry alone.
//
// Run via `make fuzz` (short -fuzztime per target) or directly:
//
//	go test -run '^$' -fuzz '^FuzzMatMul$' -fuzztime 10s ./internal/tensor
//
// The seed corpus pins every combination fuzzing must not regress: dims of
// 0, 1, blockM-1, blockM, blockM+1 — empty operands, singletons, and the
// three sizes straddling the cache-tile boundary — plus shapes on both sides
// of the small-M cutoff with k past one kc panel.

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// fuzzMaxDim bounds fuzzed dimensions so one naive reference evaluation
// stays cheap; 131 keeps both the 63/64/65 block boundary and the
// 127/128/129 second-tile boundary reachable (the blocked MatMulTransB
// rewrite visits several tiles per dimension).
const fuzzMaxDim = 131

func clampDim(v int) int {
	if v < 0 {
		v = -(v + 1) // avoid MinInt overflow
	}
	return v % fuzzMaxDim
}

func fuzzTensor(r *rng.Stream, shape ...int) *Tensor {
	t := New(shape...)
	t.FillRandNorm(r, 1)
	return t
}

// fuzzCompare fails the fuzz run if got and want diverge. Tolerance is
// scaled by K: blocked summation reorders additions, so rounding grows with
// the reduction length.
func fuzzCompare(t *testing.T, got, want *Tensor, k int) {
	t.Helper()
	tol := 1e-12 * float64(k+1)
	for i := range got.Data {
		d := math.Abs(got.Data[i] - want.Data[i])
		if math.IsNaN(got.Data[i]) || math.IsNaN(want.Data[i]) || d > tol {
			t.Fatalf("element %d: got %v want %v (tol %v)", i, got.Data[i], want.Data[i], tol)
		}
	}
}

func addMatMulSeeds(f *testing.F) {
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				f.Add(m, k, n, uint64(1))
			}
		}
	}
	// Second-tile boundaries: several tiles per dimension, partial k sums.
	for _, d := range []int{2*blockM - 1, 2 * blockM, 2*blockM + 1} {
		f.Add(d, d, d, uint64(2))
		f.Add(d, blockK+1, 1, uint64(3))
		f.Add(1, d, blockN+1, uint64(4))
	}
	// Both sides of the small-M cutoff, k past one kc panel, n past one
	// micro-panel: the packed kernel's accumulate-across-panels path and the
	// blocked kernel it hands small calls to.
	f.Add(packMinM-1, kc+1, nr+1, uint64(5))
	f.Add(packMinM, kc+1, nr+1, uint64(6))
	f.Add(packMinM+mr+1, 2*kc+3, fuzzMaxDim-1, uint64(7))
	// MatMulPacked's own cutoff: the last M it hands to the blocked kernel,
	// the first two it keeps (one microtile row, one and a half).
	f.Add(1, kc+1, nc+1, uint64(8))
	f.Add(2, kc+1, nc+1, uint64(9))
	f.Add(3, kc+1, nc-1, uint64(10))
}

func FuzzMatMul(f *testing.F) {
	addMatMulSeeds(f)
	f.Fuzz(func(t *testing.T, m, k, n int, seed uint64) {
		m, k, n = clampDim(m), clampDimF32(k, fuzzMaxK), clampDim(n)
		r := rng.New(seed)
		a := fuzzTensor(r, m, k)
		b := fuzzTensor(r, k, n)
		dst := poisoned(m, n)
		MatMul(dst, a, b)
		want := refMatMul(a, b)
		fuzzCompare(t, dst, want, k)
		dst = poisoned(m, n)
		MatMulPacked(dst, a, b, PackB(b))
		fuzzCompare(t, dst, want, k)
	})
}

func FuzzMatMulTransA(f *testing.F) {
	addMatMulSeeds(f)
	f.Fuzz(func(t *testing.T, m, k, n int, seed uint64) {
		m, k, n = clampDim(m), clampDimF32(k, fuzzMaxK), clampDim(n)
		r := rng.New(seed)
		a := fuzzTensor(r, k, m) // stored transposed
		b := fuzzTensor(r, k, n)
		dst := poisoned(m, n)
		MatMulTransA(dst, a, b)
		fuzzCompare(t, dst, refMatMulTransA(a, b), k)
	})
}

func FuzzMatMulTransB(f *testing.F) {
	addMatMulSeeds(f)
	f.Fuzz(func(t *testing.T, m, k, n int, seed uint64) {
		m, k, n = clampDim(m), clampDimF32(k, fuzzMaxK), clampDim(n)
		r := rng.New(seed)
		a := fuzzTensor(r, m, k)
		b := fuzzTensor(r, n, k) // stored transposed
		dst := poisoned(m, n)
		MatMulTransB(dst, a, b)
		fuzzCompare(t, dst, refMatMulTransB(a, b), k)
	})
}

// FuzzConv fuzzes the im2col-lowered convolution path (Im2Col1D + MatMul —
// exactly what nn.Conv1D executes) against the direct sliding-window
// reference, over channels, length, kernel, stride, and padding.
func FuzzConv(f *testing.F) {
	f.Add(1, 0, 1, 1, 0, 1, uint64(1))  // empty input
	f.Add(1, 1, 1, 1, 0, 1, uint64(1))  // singletons
	f.Add(2, 7, 3, 1, 1, 3, uint64(1))  // same-ish conv
	f.Add(3, 63, 5, 2, 2, 4, uint64(1)) // strided, boundary-length input
	f.Add(1, 65, 3, 1, 0, 2, uint64(2)) // blockM+1 input
	f.Fuzz(func(t *testing.T, channels, inLen, kernel, stride, pad, filters int, seed uint64) {
		channels = 1 + clampDim(channels)%4
		inLen = clampDim(inLen)
		kernel = 1 + clampDim(kernel)%7
		stride = 1 + clampDim(stride)%4
		pad = clampDim(pad) % 4
		filters = 1 + clampDim(filters)%4
		outLen := Conv1DOutLen(inLen, kernel, stride, pad)
		if outLen < 0 {
			t.Skip("kernel wider than padded input")
		}
		r := rng.New(seed)
		in := fuzzTensor(r, channels*inLen)
		w := fuzzTensor(r, filters, channels*kernel)
		col := poisoned(channels*kernel, outLen)
		Im2Col1D(col, in, channels, inLen, kernel, stride, pad)
		got := poisoned(filters, outLen)
		MatMul(got, w, col)
		want := refConv1D(in, w, channels, inLen, kernel, stride, pad)
		fuzzCompare(t, got, want, channels*kernel)
	})
}
