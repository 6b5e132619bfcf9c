package tensor

import (
	"testing"

	"repro/internal/rng"
)

// Kernel micro-benchmarks backing the BENCH_kernels.json sweep: both f64
// kernels and each registered f32 backend at the headline shape.
func benchGemm(b *testing.B, size int, fn func()) {
	b.Helper()
	fn()                                      // warm scratch pools and page in operands
	b.SetBytes(int64(2 * size * size * size)) // FLOPs, so MB/s reads as MFLOP/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
}

func benchF64At512(b *testing.B, matmul func(dst, a, b *Tensor)) {
	r := rng.New(1)
	a, bb, dst := randT(r, 512, 512), randT(r, 512, 512), New(512, 512)
	benchGemm(b, 512, func() { matmul(dst, a, bb) })
}

func BenchmarkGemmF64Blocked512(b *testing.B) { benchF64At512(b, MatMulBlocked) }
func BenchmarkGemmF64Packed512(b *testing.B)  { benchF64At512(b, MatMul) }

func benchBackend512(b *testing.B, name string) {
	bk, err := BackendByName(name)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	a, bb, dst := NewF32(512, 512), NewF32(512, 512), NewF32(512, 512)
	a.FillRandNorm(r, 1)
	bb.FillRandNorm(r, 1)
	benchGemm(b, 512, func() { bk.MatMulF32(dst, a, bb) })
}

func BenchmarkGemmF32Naive512(b *testing.B)   { benchBackend512(b, "naive") }
func BenchmarkGemmF32Blocked512(b *testing.B) { benchBackend512(b, "blocked") }
func BenchmarkGemmF32Packed512(b *testing.B)  { benchBackend512(b, "packed") }
