package tensor

// Differential oracle for the GEMM kernels: the float32 backend registry and
// the float64 entry points (MatMul, MatMulTransA, MatMulTransB and the
// accumulate form), which are the other instantiation of the same code.
//
// Every registered backend is enumerated from the registry itself and checked
// against independent flat-index float32 references over both the edge-shape
// table (0, 1, blockM-1, blockM, blockM+1 per dimension) and seeded random
// shapes that cross the packed kernel's kc/mc panel boundaries. The naive
// backend must match the reference BITWISE — it defines the canonical
// k-ordered float32 accumulation. Tiled backends reorder the summation, so
// they match within a small ULP budget, with a K-scaled absolute escape for
// cancellation (a sum near zero can sit many ULPs from the reference while
// both are correct to within rounding).
//
// oracleULP below is the completeness gate: registering a backend without
// adding it there fails TestBackendRegistryComplete, so no backend can ship
// without oracle coverage.

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// oracleULP maps every registered backend to its ULP budget against the
// naive-order reference. 0 means bitwise.
var oracleULP = map[string]int64{
	"naive":   0,
	"blocked": 16,
	"packed":  16,
}

func TestBackendRegistryComplete(t *testing.T) {
	names := BackendNames()
	for _, n := range names {
		if _, ok := oracleULP[n]; !ok {
			t.Errorf("backend %q is registered but has no oracle ULP budget; add it to oracleULP and cover it", n)
		}
	}
	if len(names) != len(oracleULP) {
		t.Errorf("registry has %d backends %v, oracleULP covers %d; the two must enumerate the same set",
			len(names), names, len(oracleULP))
	}
}

// refMatMulF32 computes a (M x K) @ b (K x N) with flat indices and a single
// k-ordered float32 accumulator per element — the canonical result.
func refMatMulF32(a, b *F32) *F32 {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := NewF32(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// refMatMulTransAF32 computes aᵀ @ b for a (K x M), b (K x N).
func refMatMulTransAF32(a, b *F32) *F32 {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := NewF32(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[kk*m+i] * b.Data[kk*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// refMatMulTransBF32 computes a @ bᵀ for a (M x K), b (N x K).
func refMatMulTransBF32(a, b *F32) *F32 {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := NewF32(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func randF32(r *rng.Stream, shape ...int) *F32 {
	t := NewF32(shape...)
	t.FillRandNorm(r, 1)
	return t
}

// poisonedF32 pre-fills with NaN so any element a backend fails to overwrite
// fails the comparison (every compare path rejects NaN).
func poisonedF32(shape ...int) *F32 {
	t := NewF32(shape...)
	t.Fill(float32(math.NaN()))
	return t
}

// ulpDist32 returns the distance between a and b in float32 ULPs, treating
// the floats as points on the ordered-integer number line (so +0 and -0 are
// 0 apart and values straddling zero get the sum of their magnitudes' ranks).
func ulpDist32(a, b float32) int64 {
	oa, ob := orderedBits32(a), orderedBits32(b)
	if oa > ob {
		return oa - ob
	}
	return ob - oa
}

func orderedBits32(f float32) int64 {
	b := int64(math.Float32bits(f))
	if b&0x80000000 != 0 {
		b = 0x80000000 - b
	}
	return b
}

// expectOracle checks got against the reference under the backend's ULP
// budget. ulpTol 0 demands bitwise equality. Non-zero budgets also get a
// K-scaled absolute escape for catastrophic cancellation, where relative
// (ULP) distance is meaningless.
func expectOracle(t *testing.T, got, want *F32, k int, ulpTol int64, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", label, got.Shape(), want.Shape())
	}
	absTol := 1e-5 * float64(k+1)
	for i := range got.Data {
		g, w := got.Data[i], want.Data[i]
		if math.IsNaN(float64(g)) || math.IsNaN(float64(w)) {
			t.Fatalf("%s: element %d got %v want %v (NaN leak)", label, i, g, w)
		}
		if math.Float32bits(g) == math.Float32bits(w) {
			continue
		}
		if ulpTol == 0 {
			t.Fatalf("%s: element %d got %x want %x (bitwise contract)",
				label, i, math.Float32bits(g), math.Float32bits(w))
		}
		if ulpDist32(g, w) > ulpTol && math.Abs(float64(g-w)) > absTol {
			t.Fatalf("%s: element %d got %v want %v (ulp %d > %d, |diff| %v > %v)",
				label, i, g, w, ulpDist32(g, w), ulpTol, math.Abs(float64(g-w)), absTol)
		}
	}
}

// forEachBackend runs fn once per registered backend as a named subtest,
// passing the backend's oracle ULP budget.
func forEachBackend(t *testing.T, fn func(t *testing.T, bk Backend, ulpTol int64)) {
	for _, name := range BackendNames() {
		bk, err := BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ulpTol, ok := oracleULP[name]
		if !ok {
			t.Fatalf("backend %q missing from oracleULP", name)
		}
		t.Run(name, func(t *testing.T) { fn(t, bk, ulpTol) })
	}
}

// oracleShapes returns the (m, k, n) triples every kernel is checked on: the
// full edge table plus shapes crossing the packed kernel's micro- and
// cache-panel boundaries (mr/nr remainders, several mc row panels, several
// kc k-panels with partial-tile accumulation, several nc column blocks) and
// both sides of the small-M cutoff.
func oracleShapes() [][3]int {
	var shapes [][3]int
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	shapes = append(shapes,
		[3]int{mc + 1, 2*kc + 3, nr + 1},        // multi k-panel accumulate, row-panel + nr remainders
		[3]int{2*mc + mr + 1, kc, 2 * nr},       // exact kc boundary, odd mr remainder
		[3]int{mr - 1, kc + 1, nr - 1},          // sub-microtile output
		[3]int{97, 131, 89},                     // primes: nothing divides anything
		[3]int{packMinM - 1, kc + 1, nc + 1},    // last M on the blocked kernel
		[3]int{packMinM, kc + 1, nc + 1},        // first M on the packed kernel, second column block
		[3]int{mc - 1, kc - 1, 2*nc - 1},        // just inside every panel
		[3]int{packMinM + 1, 64, 4*nc + nr + 1}, // shallow k widens the column block: its boundary moves to kc*nc/k
		[3]int{2, kc + 1, nc - 1},               // first M MatMulPacked keeps on the packed kernel: one microtile row
		[3]int{3, kc + 1, nc + 1},               // one and a half microtile rows, second column block
		[3]int{mc, 64, 4*nc + nr - 1},           // one full row panel, widened column block
	)
	return shapes
}

func TestBackendOracleMatMulF32(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend, ulpTol int64) {
		r := rng.New(30)
		for _, s := range oracleShapes() {
			m, k, n := s[0], s[1], s[2]
			a, b := randF32(r, m, k), randF32(r, k, n)
			dst := poisonedF32(m, n)
			bk.MatMulF32(dst, a, b)
			expectOracle(t, dst, refMatMulF32(a, b), k, ulpTol,
				"MatMulF32 "+shapeLabel(m, k, n))
		}
	})
}

func TestBackendOracleMatMulTransAF32(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend, ulpTol int64) {
		r := rng.New(31)
		for _, s := range oracleShapes() {
			m, k, n := s[0], s[1], s[2]
			a, b := randF32(r, k, m), randF32(r, k, n) // a stored transposed
			dst := poisonedF32(m, n)
			bk.MatMulTransAF32(dst, a, b)
			expectOracle(t, dst, refMatMulTransAF32(a, b), k, ulpTol,
				"MatMulTransAF32 "+shapeLabel(m, k, n))
		}
	})
}

func TestBackendOracleMatMulTransBF32(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend, ulpTol int64) {
		r := rng.New(32)
		for _, s := range oracleShapes() {
			m, k, n := s[0], s[1], s[2]
			a, b := randF32(r, m, k), randF32(r, n, k) // b stored transposed
			dst := poisonedF32(m, n)
			bk.MatMulTransBF32(dst, a, b)
			expectOracle(t, dst, refMatMulTransBF32(a, b), k, ulpTol,
				"MatMulTransBF32 "+shapeLabel(m, k, n))
		}
	})
}

// TestBackendOracleParallel re-runs the headline op with kernel parallelism
// forced on, so the oracle also covers the ParallelFor code paths (and data
// races surface under -race even on a single-core host).
func TestBackendOracleParallel(t *testing.T) {
	saved := MaxProcs
	MaxProcs = 4
	defer func() { MaxProcs = saved }()
	forEachBackend(t, func(t *testing.T, bk Backend, ulpTol int64) {
		r := rng.New(33)
		m, k, n := 2*mc+3, kc+5, 3*nr+1
		a, b := randF32(r, m, k), randF32(r, k, n)
		dst := poisonedF32(m, n)
		bk.MatMulF32(dst, a, b)
		expectOracle(t, dst, refMatMulF32(a, b), k, ulpTol, "parallel MatMulF32")
	})
}

func TestSetBackendRoundTrip(t *testing.T) {
	saved := CurrentBackend().Name()
	defer func() {
		if err := SetBackend(saved); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range BackendNames() {
		if err := SetBackend(name); err != nil {
			t.Fatal(err)
		}
		if got := CurrentBackend().Name(); got != name {
			t.Fatalf("SetBackend(%q) then CurrentBackend().Name() = %q", name, got)
		}
		// The package-level dispatcher must route to the pinned backend:
		// under naive the result is bitwise the reference.
		r := rng.New(34)
		a, b := randF32(r, 5, 7), randF32(r, 7, 3)
		dst := poisonedF32(5, 3)
		MatMulF32(dst, a, b)
		expectOracle(t, dst, refMatMulF32(a, b), 7, oracleULP[name], "dispatch "+name)
	}
}

func TestSetBackendUnknown(t *testing.T) {
	if err := SetBackend("no-such-backend"); err == nil {
		t.Fatal("SetBackend on an unknown name must error")
	}
	if _, err := BackendByName("no-such-backend"); err == nil {
		t.Fatal("BackendByName on an unknown name must error")
	}
}

func TestRegisterBackendPanics(t *testing.T) {
	for _, c := range []struct {
		label string
		bk    Backend
	}{
		{"duplicate name", naiveBackend{}},
		{"empty name", emptyNameBackend{}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RegisterBackend with %s did not panic", c.label)
				}
			}()
			RegisterBackend(c.bk)
		}()
	}
}

// emptyNameBackend exists only to probe RegisterBackend's name validation.
type emptyNameBackend struct{ naiveBackend }

func (emptyNameBackend) Name() string { return "" }

// f64Entry is one float64 GEMM entry point with its flat reference and the
// operand layouts it expects.
type f64Entry struct {
	name string
	fn   func(dst, a, b *Tensor)
	ref  func(a, b *Tensor) *Tensor
	op   gemmOp
}

var f64Entries = []f64Entry{
	{"MatMul", MatMul, refMatMul, 0},
	{"MatMulTransA", MatMulTransA, refMatMulTransA, opTransA},
	{"MatMulTransB", MatMulTransB, refMatMulTransB, opTransB},
	{"MatMulBlocked", MatMulBlocked, refMatMul, 0},
	{"MatMulPacked", matMulPrepacked, refMatMul, 0},
}

// matMulPrepacked is MatMulPacked as an (dst, a, b) entry point: the pack is
// part of what the oracle checks.
func matMulPrepacked(dst, a, b *Tensor) { MatMulPacked(dst, a, b, PackB(b)) }

// operands draws a and b for op(A) (m x k) and op(B) (k x n) in the layouts
// the entry point stores them in.
func (e f64Entry) operands(r *rng.Stream, m, k, n int) (a, b *Tensor) {
	a, b = randT(r, m, k), randT(r, k, n)
	if e.op&opTransA != 0 {
		a = randT(r, k, m)
	}
	if e.op&opTransB != 0 {
		b = randT(r, n, k)
	}
	return a, b
}

// TestGemmF64Oracle holds the float64 entry points to the flat references
// on every oracle shape, on a NaN-poisoned dst. The tolerance is fuzz_test's:
// tiling only reassociates the k-sum, so the error grows with k alone.
func TestGemmF64Oracle(t *testing.T) {
	for _, e := range f64Entries {
		r := rng.New(35)
		for _, s := range oracleShapes() {
			m, k, n := s[0], s[1], s[2]
			a, b := e.operands(r, m, k, n)
			dst := poisoned(m, n)
			e.fn(dst, a, b)
			expectClose(t, dst, e.ref(a, b), 1e-12*float64(k+1), e.name+" "+shapeLabel(m, k, n))
		}
	}
}

// TestGemmF64IndependentOfMaxProcs pins that the worker count only splits
// row panels between goroutines: every dst element sums the same products
// in the same order, so the result is bitwise the one-worker result.
func TestGemmF64IndependentOfMaxProcs(t *testing.T) {
	saved := MaxProcs
	defer func() { MaxProcs = saved }()
	for _, e := range f64Entries {
		r := rng.New(36)
		m, k, n := 3*mc+5, kc+7, nc+3
		a, b := e.operands(r, m, k, n)
		MaxProcs = 1
		want := poisoned(m, n)
		e.fn(want, a, b)
		for _, procs := range []int{2, 3, 8} {
			MaxProcs = procs
			got := poisoned(m, n)
			e.fn(got, a, b)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s MaxProcs=%d: element %d is %v, one worker gives %v",
						e.name, procs, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestGemmAccumulateForm pins dst += op(A)·op(B) against overwrite-then-add
// for every transpose on both sides of the small-M cutoff, and the exported
// AddMatMulTransA against MatMulTransA.
func TestGemmAccumulateForm(t *testing.T) {
	r := rng.New(37)
	for _, m := range []int{packMinM - 1, packMinM, mc + 3} {
		k, n := kc+9, nc+5
		for _, e := range f64Entries {
			a, b := e.operands(r, m, k, n)
			start := randT(r, m, n)
			want := New(m, n)
			e.fn(want, a, b)
			Add(want, want, start)
			got := start.Clone()
			gemm(&pools64, got.Data, a.Data, b.Data, nil, m, k, n, e.op|opAcc)
			expectClose(t, got, want, 1e-12*float64(k+1), "accumulate "+e.name+" "+shapeLabel(m, k, n))
			if e.op == opTransA {
				got = start.Clone()
				AddMatMulTransA(got, a, b)
				expectClose(t, got, want, 1e-12*float64(k+1), "AddMatMulTransA "+shapeLabel(m, k, n))
			}
		}
	}
}

// TestGemmZeroTimesNonFinite pins which calls propagate 0·NaN and 0·Inf (see
// blockedRange and README.md): A is all zeros and B holds one NaN and one
// +Inf, so IEEE arithmetic makes every dst element they meet NaN, and the
// axpy tile's zero skip leaves dst all zeros.
func TestGemmZeroTimesNonFinite(t *testing.T) {
	const k, n = 5, 6
	blocked, _ := BackendByName("blocked")
	packed, _ := BackendByName("packed")
	f32 := func(fn func(dst, a, b *F32), tA, tB bool) func(m int) []float64 {
		return func(m int) []float64 {
			a, b, dst := NewF32(m, k), NewF32(k, n), poisonedF32(m, n)
			if tA {
				a = NewF32(k, m)
			}
			if tB {
				b = NewF32(n, k)
			}
			b.Data[1], b.Data[len(b.Data)-2] = nanF32(), float32(math.Inf(1))
			fn(dst, a, b)
			out := make([]float64, len(dst.Data))
			for i, v := range dst.Data {
				out[i] = float64(v)
			}
			return out
		}
	}
	f64 := func(e f64Entry) func(m int) []float64 {
		return func(m int) []float64 {
			a, b := New(m, k), New(k, n)
			if e.op&opTransA != 0 {
				a = New(k, m)
			}
			if e.op&opTransB != 0 {
				b = New(n, k)
			}
			b.Data[1], b.Data[len(b.Data)-2] = math.NaN(), math.Inf(1)
			dst := poisoned(m, n)
			e.fn(dst, a, b)
			return dst.Data
		}
	}
	for _, c := range []struct {
		label      string
		run        func(m int) []float64
		m          int
		propagates bool
	}{
		{"MatMul below the cutoff", f64(f64Entries[0]), packMinM - 1, false},
		{"MatMul at the cutoff", f64(f64Entries[0]), packMinM, true},
		{"MatMulTransA below the cutoff", f64(f64Entries[1]), packMinM - 1, false},
		{"MatMulTransA at the cutoff", f64(f64Entries[1]), packMinM, true},
		{"MatMulTransB below the cutoff", f64(f64Entries[2]), packMinM - 1, true},
		{"MatMulTransB at the cutoff", f64(f64Entries[2]), packMinM, true},
		{"MatMulPacked, 1 row (blocked kernel)", f64(f64Entries[4]), 1, false},
		{"MatMulPacked, 2 rows (packed kernel)", f64(f64Entries[4]), 2, true},
		{"f32 blocked MatMulF32", f32(blocked.MatMulF32, false, false), packMinM, false},
		{"f32 blocked MatMulTransAF32", f32(blocked.MatMulTransAF32, true, false), packMinM, false},
		{"f32 blocked MatMulTransBF32", f32(blocked.MatMulTransBF32, false, true), packMinM, true},
		{"f32 packed below the cutoff", f32(packed.MatMulF32, false, false), packMinM - 1, false},
		{"f32 packed at the cutoff", f32(packed.MatMulF32, false, false), packMinM, true},
	} {
		nans := 0
		for _, v := range c.run(c.m) {
			if math.IsNaN(v) {
				nans++
			} else if v != 0 {
				t.Fatalf("%s: dst holds %v, want 0 or NaN", c.label, v)
			}
		}
		if c.propagates != (nans > 0) {
			t.Errorf("%s: %d NaN in dst, propagates = %v", c.label, nans, c.propagates)
		}
	}
}

// TestMatMulPackedIsMatMulOnTheSameKernel pins that a pre-packed B changes
// when the pack happens, not what is computed: where MatMul packs per call
// (packMinM rows and up) and where both run the blocked kernel (1 row) the
// two are bitwise equal, one worker or several.
func TestMatMulPackedIsMatMulOnTheSameKernel(t *testing.T) {
	saved := MaxProcs
	defer func() { MaxProcs = saved }()
	r := rng.New(38)
	for _, m := range []int{1, packMinM, mc, 2*mc + 3} {
		k, n := kc+7, 2*nc+3
		a, b := randT(r, m, k), randT(r, k, n)
		p := PackB(b)
		for _, procs := range []int{1, 3} {
			MaxProcs = procs
			want, got := poisoned(m, n), poisoned(m, n)
			MatMul(want, a, b)
			MatMulPacked(got, a, b, p)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("M=%d MaxProcs=%d: element %d is %v, MatMul gives %v", m, procs, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestMatMulPackedRejects pins the shape checks on the packed operand and,
// in race builds, the stale-copy detector: b written after PackB panics on
// the next call instead of multiplying by the old values.
func TestMatMulPackedRejects(t *testing.T) {
	r := rng.New(39)
	a, b := randT(r, 4, 6), randT(r, 6, 5)
	dst := New(4, 5)
	func() {
		defer expectPanic(t, "PackB of a rank-1 tensor")
		PackB(New(6))
	}()
	func() {
		defer expectPanic(t, "packed operand of another shape")
		MatMulPacked(dst, a, b, PackB(randT(r, 5, 6)))
	}()
	p := PackB(b)
	b.Data[7]++
	if !RaceEnabled {
		MatMulPacked(dst, a, b, p) // unchecked builds trust the caller
		return
	}
	defer expectPanic(t, "b written after PackB, race build")
	MatMulPacked(dst, a, b, p)
}
