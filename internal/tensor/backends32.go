package tensor

// Float32 GEMM backends: naive (the flat-index reference every other backend
// is checked against), and blocked and packed, the float32 instantiations of
// the generic kernels in gemm.go.
//
// Accumulation order is part of each backend's definition: naive accumulates
// each output element in a single k-ordered float32 sum, which is the
// canonical result the oracle suite compares against bitwise; blocked and
// packed reorder the summation across k tiles, so they match the reference
// only within a K-scaled ULP bound.

// naiveBackend is the flat-index i-j-k triple loop. It exists as the
// correctness oracle and the floor of the BENCH_kernels GFLOP/s table, not
// as a production kernel.
type naiveBackend struct{}

// Name implements Backend.
func (naiveBackend) Name() string { return "naive" }

// MatMulF32 implements Backend.
func (naiveBackend) MatMulF32(dst, a, b *F32) {
	m, k, n := checkMatMulF32(dst, a, b, 0)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			dst.Data[i*n+j] = s
		}
	}
}

// MatMulTransAF32 implements Backend.
func (naiveBackend) MatMulTransAF32(dst, a, b *F32) {
	m, k, n := checkMatMulF32(dst, a, b, opTransA)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[kk*m+i] * b.Data[kk*n+j]
			}
			dst.Data[i*n+j] = s
		}
	}
}

// MatMulTransBF32 implements Backend.
func (naiveBackend) MatMulTransBF32(dst, a, b *F32) {
	m, k, n := checkMatMulF32(dst, a, b, opTransB)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			dst.Data[i*n+j] = s
		}
	}
}

// gemm32 validates a float32 call and runs it on the packed kernel.
func gemm32(dst, a, b *F32, op gemmOp) {
	m, k, n := checkMatMulF32(dst, a, b, op)
	gemm(&pools32, dst.Data, a.Data, b.Data, nil, m, k, n, op)
}

func checkMatMulF32(dst, a, b *F32, op gemmOp) (m, k, n int) {
	return checkGemm("MatMulF32", dst.shape, a.shape, b.shape, dst.Data, a.Data, b.Data, op)
}

// packedBackend is the packed kernel (gemm.go) at float32: the same code
// MatMul/MatMulTransA/MatMulTransB run at float64, small-M cutoff included.
type packedBackend struct{}

// Name implements Backend.
func (packedBackend) Name() string { return "packed" }

// MatMulF32 implements Backend.
func (packedBackend) MatMulF32(dst, a, b *F32) { gemm32(dst, a, b, 0) }

// MatMulTransAF32 implements Backend.
func (packedBackend) MatMulTransAF32(dst, a, b *F32) { gemm32(dst, a, b, opTransA) }

// MatMulTransBF32 implements Backend.
func (packedBackend) MatMulTransBF32(dst, a, b *F32) { gemm32(dst, a, b, opTransB) }

// MatMulF32Serial runs the f32 GEMM single-threaded regardless of MaxProcs.
// It exists for callers that are already inside a ParallelFor region (the
// per-sample im2col convolution in internal/nn), where nested kernel
// parallelism would oversubscribe the worker pool.
func MatMulF32Serial(dst, a, b *F32) { gemm32(dst, a, b, opSerial) }

// MatMulTransAF32Serial is the single-threaded aᵀ @ b counterpart of
// MatMulF32Serial.
func MatMulTransAF32Serial(dst, a, b *F32) { gemm32(dst, a, b, opTransA|opSerial) }

// MatMulTransBF32Serial is the single-threaded a @ bᵀ counterpart of
// MatMulF32Serial.
func MatMulTransBF32Serial(dst, a, b *F32) { gemm32(dst, a, b, opTransB|opSerial) }

// blockedBackend is the blocked kernel (gemm.go) at float32, at any M.
type blockedBackend struct{}

// Name implements Backend.
func (blockedBackend) Name() string { return "blocked" }

// MatMulF32 implements Backend.
func (blockedBackend) MatMulF32(dst, a, b *F32) { blocked32(dst, a, b, 0) }

// MatMulTransAF32 implements Backend.
func (blockedBackend) MatMulTransAF32(dst, a, b *F32) { blocked32(dst, a, b, opTransA) }

// MatMulTransBF32 implements Backend.
func (blockedBackend) MatMulTransBF32(dst, a, b *F32) { blocked32(dst, a, b, opTransB) }

func blocked32(dst, a, b *F32, op gemmOp) {
	m, k, n := checkMatMulF32(dst, a, b, op)
	blockedGemm(dst.Data, a.Data, b.Data, m, k, n, op)
}
