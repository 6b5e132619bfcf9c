package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// elem is the element type of the GEMM kernels. Every kernel below is one
// generic implementation with two instantiations: float64 behind
// MatMul/MatMulTransA/MatMulTransB, float32 behind the backend registry.
type elem interface{ float32 | float64 }

// gemmOp says how a GEMM call stores its operands and treats dst.
type gemmOp uint8

const (
	opTransA gemmOp = 1 << iota // A is stored (K x M)
	opTransB                    // B is stored (N x K)
	opAcc                       // dst += op(A)·op(B), not dst =
	opSerial                    // stay on the caller's goroutine (callers already inside a ParallelFor)
)

// The packed kernel is GotoBLAS-shaped: operands are repacked into
// contiguous, zero-padded micro-panels so an mr x nr register-blocked
// microkernel runs the same bounds-check-free inner loop for every tile,
// including edge tiles and both transpose variants (the transpose is
// absorbed by the pack, never by the compute loop).
//
// Why it beats the blocked kernel on one scalar core, at either width: the
// microkernel keeps a 2x4 accumulator tile in registers across the whole k
// panel — 16 FLOPs per 6 loads and zero stores per unrolled step — where the
// blocked kernel does a load/multiply-add/store per element, and the packed
// panels stream sequentially whatever the original leading dimensions were.
//
// mr x nr is the register tile: 8 accumulators plus loop temporaries fit
// amd64's 16 XMM registers, where a 4x4 tile's 16 accumulators spill
// (measured ~2x slower). kc bounds the panel depth so one B micro-panel plus
// one A micro-panel stay L1-resident; mc rows of packed A are one worker's
// unit of parallel work; nc columns of packed B bound the scratch: one A
// block (mc x kc) per worker and one shared B block (kc x nc), 256 KiB each
// in float64, however large the operands are.
const (
	mr = 2
	nr = 4
	kc = 256
	mc = 128
	nc = 128
)

// packMinM is the smallest M at which a call that brings an unpacked B takes
// the packed kernel: packing B costs the same whatever M is (about 0.7 ms
// for a 1024x512 float64 B), and with few rows there is too little work to
// pay for it. A call that brings B already packed (MatMulPacked) has nothing
// to pay and takes the packed kernel from 2 rows. GFLOP/s at M x 1024 x 512,
// float64, one worker, dense operands:
//
//	M   blocked  packed per call  pre-packed
//	1     2.82        0.96           2.91
//	2     2.92        1.90           5.72
//	4     2.96        2.89           5.85
//	8     3.00        3.90           5.90
//	16    3.04        4.70           5.94
//	64    3.07        5.60           6.02
//
// (The blocked column moves by a tenth or more between builds, with where
// the linker places its inner loop.) Dense operands cross near 6 rows, but
// the blocked kernel also skips zero elements of A, which the packed one
// cannot, and past a network's first layer A is post-ReLU activations, half
// of them zero; 8 keeps every layer of a small-batch forward pass that packs
// per call no slower than on the blocked kernel. The same skip is why one
// row stays blocked even with B pre-packed: the 2x4 microkernel spends a
// padded second row on it (0.36 ms) and a half-zero row costs the blocked
// kernel 0.22. It is a property of the call, not a setting.
const packMinM = 8

// blockM/blockN/blockK are the cache tiles of the blocked kernel, sized so
// one A tile plus one B tile fit comfortably in L2 on commodity cores.
const (
	blockM = 64
	blockN = 64
	blockK = 64
)

// MaxProcs bounds the goroutine parallelism of the tensor kernels. Zero
// means runtime.GOMAXPROCS(0). It exists so benchmarks can pin kernel
// parallelism independently of the Go runtime setting.
var MaxProcs int

func nWorkers() int {
	if MaxProcs > 0 {
		return MaxProcs
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor runs fn(lo,hi) over a partition of [0,n) across the kernel
// worker pool. It blocks until all chunks complete. Chunks are contiguous so
// callers can exploit cache locality.
func ParallelFor(n int, fn func(lo, hi int)) {
	w := nWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// packPools holds one element type's pack buffers, A and B blocks apart so
// neither grows to the other's size. Buffers are pointer-boxed (Put does not
// allocate), only grow, and are bounded by the tile constants, so a warmed
// call allocates nothing (pinned by alloc_test.go).
type packPools struct{ a, b sync.Pool }

var pools32, pools64 packPools

func getPack[T elem](pool *sync.Pool, n int) *[]T {
	p, _ := pool.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

// gemm computes dst = op(A)·op(B), or dst += op(A)·op(B) under opAcc, for
// already-validated shapes: op(A) is m x k, op(B) is k x n. The microkernel
// epilogue adds into dst, so the overwrite form is "clear first". packed, if
// not nil, is packB(b): the blocks the loop below would build, in its order.
// Calls with fewer than packMinM rows run the blocked kernel unless B comes
// packed, and then only 1-row calls do.
func gemm[T elem](pp *packPools, dst, a, b, packed []T, m, k, n int, op gemmOp) {
	if op&opAcc == 0 {
		clear(dst)
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if m < packMinM && (packed == nil || m == 1) {
		blockedRange(dst, a, b, 0, 1, m, k, n, op)
		return
	}
	panels := (m + mc - 1) / mc
	serial := op&opSerial != 0 || panels == 1 || nWorkers() <= 1
	ncols := colBlock(k)
	var bbuf *[]T
	if packed == nil {
		bbuf = getPack[T](&pp.b, min(kc, k)*roundUp(min(ncols, n), nr))
	}
	for j0 := 0; j0 < n; j0 += ncols {
		nb := min(ncols, n-j0)
		for k0 := 0; k0 < k; k0 += kc {
			kb := min(kc, k-k0)
			var pb []T
			if packed != nil {
				pb = packedBlock(packed, j0, nb, k0, kb, k)
			} else {
				pb = (*bbuf)[:kb*roundUp(nb, nr)]
				if op&opTransB != 0 {
					pack(pb, b, nr, j0, nb, k0, kb, k, 1)
				} else {
					pack(pb, b, nr, j0, nb, k0, kb, 1, n)
				}
			}
			if serial {
				rowPanels(&pp.a, dst, a, pb, 0, panels, k0, kb, j0, nb, m, k, n, op&opTransA != 0)
			} else {
				rowPanelsParallel(&pp.a, dst, a, pb, panels, k0, kb, j0, nb, m, k, n, op&opTransA != 0)
			}
		}
	}
	if bbuf != nil {
		pp.b.Put(bbuf)
	}
}

// colBlock is how many columns of B one packed block spans. A shallow k
// leaves room in the block for more columns, and every column block fewer
// is one repack of A saved.
func colBlock(k int) int { return kc * nc / min(kc, k) / nr * nr }

// packedBlock is the block of packB's output that holds B's columns
// [j0,j0+nb) by rows [k0,k0+kb): column blocks before it are colBlock(k)
// wide, a multiple of nr, so they hold k*j0 elements with no padding.
func packedBlock[T elem](packed []T, j0, nb, k0, kb, k int) []T {
	nbp := roundUp(nb, nr)
	return packed[k*j0+k0*nbp:][:kb*nbp]
}

// packB packs all of a stored (K x N) B the way gemm packs it block by
// block, into one slice of k*roundUp(n, nr) elements.
func packB[T elem](b []T, k, n int) []T {
	packed := make([]T, k*roundUp(n, nr))
	if k == 0 {
		return packed
	}
	ncols := colBlock(k)
	for j0 := 0; j0 < n; j0 += ncols {
		nb := min(ncols, n-j0)
		for k0 := 0; k0 < k; k0 += kc {
			kb := min(kc, k-k0)
			pack(packedBlock(packed, j0, nb, k0, kb, k), b, nr, j0, nb, k0, kb, 1, n)
		}
	}
	return packed
}

func roundUp(v, to int) int { return (v + to - 1) / to * to }

// rowPanelsParallel is its own function so the closure ParallelFor needs is
// only built on the parallel path; the serial path stays allocation-free.
func rowPanelsParallel[T elem](pool *sync.Pool, dst, a, pb []T, panels, k0, kb, j0, nb, m, k, n int, transA bool) {
	ParallelFor(panels, func(lo, hi int) {
		rowPanels(pool, dst, a, pb, lo, hi, k0, kb, j0, nb, m, k, n, transA)
	})
}

// rowPanels processes row panels [plo,phi) against one packed B block: it
// packs each panel's A block and adds its microkernel tiles into dst
// columns [j0,j0+nb). Workers own disjoint dst rows, so the parallel
// accumulation is race-free.
func rowPanels[T elem](pool *sync.Pool, dst, a, pb []T, plo, phi, k0, kb, j0, nb, m, k, n int, transA bool) {
	abuf := getPack[T](pool, roundUp(min(mc, m), mr)*kb)
	var ct [mr * nr]T
	np := (nb + nr - 1) / nr
	for p := plo; p < phi; p++ {
		i0 := p * mc
		mb := min(mc, m-i0)
		mp := (mb + mr - 1) / mr
		pa := (*abuf)[:mp*mr*kb]
		if transA {
			pack(pa, a, mr, i0, mb, k0, kb, 1, m)
		} else {
			pack(pa, a, mr, i0, mb, k0, kb, k, 1)
		}
		for jp := 0; jp < np; jp++ {
			j := j0 + jp*nr
			w := min(nr, j0+nb-j)
			bpanel := pb[jp*kb*nr : (jp+1)*kb*nr]
			for ip := 0; ip < mp; ip++ {
				micro2x4(&ct, pa[ip*kb*mr:(ip+1)*kb*mr], bpanel, kb)
				i := i0 + ip*mr
				for di := 0; di < min(mr, m-i); di++ {
					crow := dst[(i+di)*n+j : (i+di)*n+j+w]
					for dj := range crow {
						crow[dj] += ct[di*nr+dj]
					}
				}
			}
		}
	}
	pool.Put(abuf)
}

// pack copies a block of an operand into micro-panels of width w (mr or nr,
// both even) laid out k-major (dst[panel][kk][c]), zero-padding the last
// panel past cnt. The block is cnt rows-or-columns from x0 by kb deep from
// k0; element (x, kk) lives at src[x*xs+kk*ks], so a stored transpose only
// swaps the strides and the pack absorbs it. Both loop orders read src
// along its contiguous axis: pack time is memory time.
func pack[T elem](dst, src []T, w, x0, cnt, k0, kb, xs, ks int) {
	if rem := cnt % w; rem != 0 {
		clear(dst[(cnt-rem)*kb : (cnt-rem+w)*kb])
	}
	if xs == 1 { // x is the contiguous axis: stream each k row across the panels
		for kk := 0; kk < kb; kk++ {
			row := src[x0+(k0+kk)*ks:][:cnt]
			o := kk * w
			for x := 0; x < cnt; x += w {
				seg := row[x:min(x+w, cnt)]
				out := dst[o:][:len(seg)]
				for c, v := range seg {
					out[c] = v
				}
				o += kb * w
			}
		}
		return
	}
	// k is the contiguous axis: interleave the panel's streams two at a time.
	for x := 0; x < cnt; x++ {
		out := dst[(x-x%w)*kb+x%w:]
		r0 := src[(x0+x)*xs+k0*ks:][:kb]
		if x+1 < cnt {
			x++
			r1 := src[(x0+x)*xs+k0*ks:][:kb]
			for kk, v := range r0 {
				o := out[kk*w:][:2]
				o[0], o[1] = v, r1[kk]
			}
			continue
		}
		for kk, v := range r0 {
			out[kk*w] = v
		}
	}
}

// micro2x4 computes one mr x nr tile: ct = Apanel·Bpanel over the kb-deep
// packed panels. The 8 accumulators live in registers for the whole loop;
// the panel reads are the only memory traffic. k is unrolled by two so each
// slice-header load amortizes over 16 FLOPs — measured ~2x over the
// single-step body on the scalar amd64 backend.
func micro2x4[T elem](ct *[mr * nr]T, pa, pb []T, kb int) {
	var c00, c01, c02, c03, c10, c11, c12, c13 T
	kk := 0
	for ; kk+2 <= kb; kk += 2 {
		av := pa[2*kk : 2*kk+4]
		bv := pb[4*kk : 4*kk+8]
		a0, a1 := av[0], av[1]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = av[2], av[3]
		b0, b1, b2, b3 = bv[4], bv[5], bv[6], bv[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	for ; kk < kb; kk++ {
		a0, a1 := pa[2*kk], pa[2*kk+1]
		bv := pb[4*kk : 4*kk+4]
		c00 += a0 * bv[0]
		c01 += a0 * bv[1]
		c02 += a0 * bv[2]
		c03 += a0 * bv[3]
		c10 += a1 * bv[0]
		c11 += a1 * bv[1]
		c12 += a1 * bv[2]
		c13 += a1 * bv[3]
	}
	ct[0], ct[1], ct[2], ct[3] = c00, c01, c02, c03
	ct[4], ct[5], ct[6], ct[7] = c10, c11, c12, c13
}

// blockedGemm computes dst = op(A)·op(B) on the blocked kernel at any M,
// parallel over dst row blocks: the float32 "blocked" backend and the
// baseline E15 measures the packed kernel against.
func blockedGemm[T elem](dst, a, b []T, m, k, n int, op gemmOp) {
	clear(dst)
	nb := (m + blockM - 1) / blockM
	if nb <= 1 || nWorkers() <= 1 {
		blockedRange(dst, a, b, 0, nb, m, k, n, op)
		return
	}
	ParallelFor(nb, func(lo, hi int) {
		blockedRange(dst, a, b, lo, hi, m, k, n, op)
	})
}

// blockedRange adds op(A)·op(B) into dst row blocks [blo,bhi), tile by
// tile. With B stored (K x N) a tile streams B rows into dst rows (a stored
// A transpose only changes A's strides); with B stored (N x K) both
// operands stream along k and a tile is dot products.
//
// Zero operands: the axpy tile skips a zero element of A, so 0·NaN and
// 0·Inf contribute nothing there, while the dot tile and the packed kernel
// multiply every pair and propagate them. The skip is worth a third of a
// small-batch forward pass (post-ReLU activations are half zeros) and is
// kept for that; which calls it covers is stated in README.md and pinned by
// TestGemmZeroTimesNonFinite.
func blockedRange[T elem](dst, a, b []T, blo, bhi, m, k, n int, op gemmOp) {
	rowStride, colStride := k, 1
	if op&opTransA != 0 {
		rowStride, colStride = 1, m
	}
	for i0 := blo * blockM; i0 < min(bhi*blockM, m); i0 += blockM {
		i1 := min(i0+blockM, m)
		for k0 := 0; k0 < k; k0 += blockK {
			k1 := min(k0+blockK, k)
			for j0 := 0; j0 < n; j0 += blockN {
				j1 := min(j0+blockN, n)
				if op&opTransB != 0 {
					dotTile(dst, a, b, i0, i1, j0, j1, k0, k1, k, n)
				} else {
					axpyTile(dst, a, b, i0, i1, j0, j1, k0, k1, rowStride, colStride, n)
				}
			}
		}
	}
}

// axpyTile computes dst[i0:i1, j0:j1] += A[i0:i1, k0:k1] · B[k0:k1, j0:j1]
// in i-k-j order; A's element (i,kk) is a[i*rowStride+kk*colStride].
func axpyTile[T elem](dst, a, b []T, i0, i1, j0, j1, k0, k1, rowStride, colStride, n int) {
	for i := i0; i < i1; i++ {
		crow := dst[i*n+j0 : i*n+j1]
		for kk := k0; kk < k1; kk++ {
			if av := a[i*rowStride+kk*colStride]; av != 0 {
				axpy(crow, b[kk*n+j0:], av)
			}
		}
	}
}

// axpy computes c += av·b[:len(c)]. It is a function of its own because the
// same loop written inside axpyTile spills its index to the stack and runs
// three times slower (go1.24, amd64).
func axpy[T elem](c, b []T, av T) {
	for j, bv := range b[:len(c)] {
		c[j] += av * bv
	}
}

// dotTile computes dst[i0:i1, j0:j1] += A[i0:i1, k0:k1] · B[j0:j1, k0:k1]ᵀ.
func dotTile[T elem](dst, a, b []T, i0, i1, j0, j1, k0, k1, k, n int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k+k0 : i*k+k1]
		crow := dst[i*n+j0 : i*n+j1]
		for j := range crow {
			brow := b[(j0+j)*k+k0:][:len(arow)]
			var s T
			for kk, av := range arow {
				s += av * brow[kk]
			}
			crow[j] += s
		}
	}
}

// MatMul computes dst = a @ b for a (M x K) and b (K x N), dst (M x N).
// dst must not alias a or b. dst is fully overwritten: prior contents
// (including NaNs) never leak into the result, even for zero-size K.
func MatMul(dst, a, b *Tensor) { gemm64(dst, a, b, 0) }

// MatMulTransA computes dst = aᵀ @ b for a (K x M) and b (K x N), dst (M x N).
// Same contract as MatMul. Used for weight gradients (Xᵀ·dY).
func MatMulTransA(dst, a, b *Tensor) { gemm64(dst, a, b, opTransA) }

// AddMatMulTransA computes dst += aᵀ @ b: MatMulTransA's accumulate form,
// so a weight gradient lands in its accumulator without a temporary.
func AddMatMulTransA(dst, a, b *Tensor) { gemm64(dst, a, b, opTransA|opAcc) }

// MatMulTransB computes dst = a @ bᵀ for a (M x K) and b (N x K), dst (M x N).
// Same contract as MatMul. Used for input gradients (dY·Wᵀ).
func MatMulTransB(dst, a, b *Tensor) { gemm64(dst, a, b, opTransB) }

func gemm64(dst, a, b *Tensor, op gemmOp) {
	m, k, n := checkGemm("MatMul", dst.shape, a.shape, b.shape, dst.Data, a.Data, b.Data, op)
	gemm(&pools64, dst.Data, a.Data, b.Data, nil, m, k, n, op)
}

// PackedB is a (K x N) right operand packed once for MatMulPacked: the
// nr-wide, kc-deep panels MatMul builds from B on every call. It is
// immutable and holds no reference to the tensor it was packed from, so any
// number of goroutines, each with its own equal-valued B, may share one.
type PackedB struct {
	k, n int
	data []float64
}

// PackedMaxRows is the most rows of A for which keeping a PackedB pays: one
// row panel. Past it the per-call pack of B is a few percent of the call
// and the kept copy only costs its memory.
const PackedMaxRows = mc

// PackB packs b (K x N). The result stands for b's values at the time of
// the call: after writing b, pack it again.
func PackB(b *Tensor) *PackedB {
	if b.Rank() != 2 {
		panic("tensor: PackB requires a rank-2 operand")
	}
	return &PackedB{k: b.shape[0], n: b.shape[1], data: packB(b.Data, b.shape[0], b.shape[1])}
}

// MatMulPacked is MatMul(dst, a, b) given p = PackB(b): same contract and
// bitwise the same result as MatMul on the same kernel, with no pack of B,
// so the packed kernel pays from 2 rows instead of packMinM. A 1-row call
// reads b on the blocked kernel (see packMinM). In race builds every call
// re-packs b and panics if p no longer matches it, which is how the checked
// builds catch a write to b that was not followed by PackB.
func MatMulPacked(dst, a, b *Tensor, p *PackedB) {
	m, k, n := checkGemm("MatMulPacked", dst.shape, a.shape, b.shape, dst.Data, a.Data, b.Data, 0)
	if p.k != k || p.n != n {
		panic(fmt.Sprintf("tensor: MatMulPacked packed operand is %d x %d, b is %d x %d", p.k, p.n, k, n))
	}
	if RaceEnabled {
		for i, v := range packB(b.Data, k, n) {
			if math.Float64bits(v) != math.Float64bits(p.data[i]) { // bits: a NaN weight is not a stale one
				panic(fmt.Sprintf("tensor: MatMulPacked: b was written after PackB (packed element %d is %v, b now packs to %v)", i, p.data[i], v))
			}
		}
	}
	gemm(&pools64, dst.Data, a.Data, b.Data, p.data, m, k, n, 0)
}

// MatMulBlocked is MatMul on the blocked kernel whatever M is: the baseline
// the kernels experiment (E15) measures the packed kernel against.
func MatMulBlocked(dst, a, b *Tensor) {
	m, k, n := checkGemm("MatMul", dst.shape, a.shape, b.shape, dst.Data, a.Data, b.Data, 0)
	blockedGemm(dst.Data, a.Data, b.Data, m, k, n, 0)
}

// MatVec computes dst = a @ x for a (M x K) and x (K), dst (M).
// dst is fully overwritten.
func MatVec(dst, a, x *Tensor) {
	if a.Rank() != 2 || a.Dim(1) != x.Len() || dst.Len() != a.Dim(0) {
		panic(fmt.Sprintf("tensor: MatVec shapes %v %v %v", dst.shape, a.shape, x.shape))
	}
	m, k := a.Dim(0), a.Dim(1)
	ParallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.Data[i*k : (i+1)*k]
			s := 0.0
			for j := 0; j < k; j++ {
				s += row[j] * x.Data[j]
			}
			dst.Data[i] = s
		}
	})
}

// checkGemm validates shapes and returns (M, K, N) given op's transpose
// flags, and panics on aliasing of dst with an input. The aliasing probe
// compares backing-array addresses, so it must be (and is) skipped for any
// zero-length operand: &data[0] on an empty slice would itself panic, and
// empty tensors cannot alias anything.
func checkGemm[T elem](name string, ds, as, bs []int, dd, ad, bd []T, op gemmOp) (m, k, n int) {
	if len(ds) != 2 || len(as) != 2 || len(bs) != 2 {
		panic("tensor: " + name + " requires rank-2 operands")
	}
	m, k = as[0], as[1]
	if op&opTransA != 0 {
		k, m = m, k
	}
	kb, n := bs[0], bs[1]
	if op&opTransB != 0 {
		n, kb = kb, n
	}
	if kb != k {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", name, k, kb))
	}
	if ds[0] != m || ds[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v want [%d %d]", name, ds, m, n))
	}
	if len(dd) > 0 && len(ad) > 0 && len(bd) > 0 && (&dd[0] == &ad[0] || &dd[0] == &bd[0]) {
		panic("tensor: " + name + " dst aliases an input")
	}
	return m, k, n
}
