package tensor

// Fuzz targets for the float32 kernel backends. Like the float64 targets in
// fuzz_test.go, the fuzzer drives shapes and a data seed while values come
// from the repo's deterministic rng, so every crash reproduces from its
// corpus entry alone. Each input exercises EVERY registered backend (the
// registry is enumerated inside the fuzz function) against the flat-index
// references in backend_oracle_test.go, on a NaN-poisoned dst so a skipped
// output element fails the overwrite contract.
//
// Run via `make fuzz` or directly:
//
//	go test -run '^$' -fuzz '^FuzzMatMulF32$' -fuzztime 10s ./internal/tensor
//
// The seed corpus pins the edge table (0/1/blockM-1/blockM/blockM+1) plus
// shapes past one packed tile in every direction: mr/nr remainders, a second
// mc row panel, and a second kc k-panel (partial-tile accumulation).

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// fuzzMaxK bounds the reduction dimension (both precisions) so a second kc panel (k >
// 256) stays reachable while one naive reference evaluation stays cheap.
const fuzzMaxK = 2*kc + 7

func clampDimF32(v, limit int) int {
	if v < 0 {
		v = -(v + 1) // avoid MinInt overflow
	}
	return v % limit
}

func addMatMulF32Seeds(f *testing.F) {
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				f.Add(m, k, n, uint64(1))
			}
		}
	}
	// Past one packed tile: micro-tile remainders, second row panel, second
	// k panel — where pack/accumulate bookkeeping historically breaks.
	f.Add(mr+1, kc+1, nr+1, uint64(2))
	f.Add(mc+1, 2*kc+3, 2*nr+1, uint64(3))
	f.Add(2*mc+1, kc, nr-1, uint64(4))
	f.Add(1, fuzzMaxK-1, 1, uint64(5))
}

func FuzzMatMulF32(f *testing.F) {
	addMatMulF32Seeds(f)
	f.Fuzz(func(t *testing.T, m, k, n int, seed uint64) {
		m = clampDimF32(m, fuzzMaxDim)
		k = clampDimF32(k, fuzzMaxK)
		n = clampDimF32(n, fuzzMaxDim)
		r := rng.New(seed)
		a := randF32(r, m, k)
		b := randF32(r, k, n)
		at := randF32(r, k, m) // independent transposed-layout operands
		bt := randF32(r, n, k)
		wantAB := refMatMulF32(a, b)
		wantTA := refMatMulTransAF32(at, b)
		wantTB := refMatMulTransBF32(a, bt)
		forEachBackend(t, func(t *testing.T, bk Backend, ulpTol int64) {
			dst := poisonedF32(m, n)
			bk.MatMulF32(dst, a, b)
			expectOracle(t, dst, wantAB, k, ulpTol, "MatMulF32 "+shapeLabel(m, k, n))
			dst.Fill(nanF32())
			bk.MatMulTransAF32(dst, at, b)
			expectOracle(t, dst, wantTA, k, ulpTol, "MatMulTransAF32 "+shapeLabel(m, k, n))
			dst.Fill(nanF32())
			bk.MatMulTransBF32(dst, a, bt)
			expectOracle(t, dst, wantTB, k, ulpTol, "MatMulTransBF32 "+shapeLabel(m, k, n))
		})
	})
}

// FuzzConvF32 fuzzes the float32 im2col lowering and its adjoint against the
// float64 versions on identical values (float32 inputs convert to float64
// exactly). Im2Col only moves and zeroes elements, so the f32 col must match
// the f64 col BITWISE; Col2Im accumulates in the same loop order, so the f32
// result matches the f64 one within f32 rounding of the overlap-count-deep
// sums. The full conv (weights @ col) then goes through every backend.
func FuzzConvF32(f *testing.F) {
	f.Add(1, 1, 1, 1, 1, 0, 1, uint64(1)) // singletons
	f.Add(2, 5, 7, 3, 1, 1, 3, uint64(1)) // same-ish conv
	f.Add(3, 9, 8, 5, 2, 2, 4, uint64(2)) // strided, pad past kernel middle
	f.Add(1, 16, 16, 3, 1, 0, 2, uint64(3))
	f.Fuzz(func(t *testing.T, channels, h, w, kernel, stride, pad, filters int, seed uint64) {
		channels = 1 + clampDimF32(channels, 3)
		h = clampDimF32(h, 17)
		w = clampDimF32(w, 17)
		kernel = 1 + clampDimF32(kernel, 5)
		stride = 1 + clampDimF32(stride, 3)
		pad = clampDimF32(pad, 3)
		filters = 1 + clampDimF32(filters, 4)
		oh, ow := Conv2DOutDims(h, w, kernel, stride, pad)
		if oh <= 0 || ow <= 0 {
			t.Skip("kernel wider than padded input")
		}
		r := rng.New(seed)
		in32 := randF32(r, channels*h*w)
		in64 := New(channels * h * w)
		for i, v := range in32.Data {
			in64.Data[i] = float64(v)
		}
		ck2 := channels * kernel * kernel

		col32 := poisonedF32(ck2, oh*ow)
		Im2Col2DF32(col32, in32, channels, h, w, kernel, stride, pad)
		col64 := poisoned(ck2, oh*ow)
		Im2Col2D(col64, in64, channels, h, w, kernel, stride, pad)
		for i := range col32.Data {
			if float64(col32.Data[i]) != col64.Data[i] {
				t.Fatalf("im2col element %d: f32 %v vs f64 %v (lowering must be bitwise)",
					i, col32.Data[i], col64.Data[i])
			}
		}

		// Full conv through every backend: weights (F, C*K*K) @ col.
		w32 := randF32(r, filters, ck2)
		want := refMatMulF32(w32, col32)
		forEachBackend(t, func(t *testing.T, bk Backend, ulpTol int64) {
			out := poisonedF32(filters, oh*ow)
			bk.MatMulF32(out, w32, col32)
			expectOracle(t, out, want, ck2, ulpTol, "conv gemm")
		})

		// Adjoint: scatter col back and compare against the f64 scatter.
		din32 := NewF32(channels * h * w)
		Col2Im2DF32(din32, col32, channels, h, w, kernel, stride, pad)
		din64 := New(channels * h * w)
		Col2Im2D(din64, col64, channels, h, w, kernel, stride, pad)
		overlap := kernel * kernel // max contributions per input element
		for i := range din32.Data {
			d := float64(din32.Data[i]) - din64.Data[i]
			if d < 0 {
				d = -d
			}
			if d > 1e-5*float64(overlap+1) {
				t.Fatalf("col2im element %d: f32 %v vs f64 %v", i, din32.Data[i], din64.Data[i])
			}
		}
	})
}

func nanF32() float32 {
	return float32(math.NaN())
}
