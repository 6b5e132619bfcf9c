package tensor

import (
	"fmt"
	"math"
)

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Tensor) {
	checkSame3(dst, a, b, "Add")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b elementwise. dst may alias a or b.
func Sub(dst, a, b *Tensor) {
	checkSame3(dst, a, b, "Sub")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// MulElem computes dst = a * b elementwise (Hadamard). dst may alias a or b.
func MulElem(dst, a, b *Tensor) {
	checkSame3(dst, a, b, "MulElem")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Scale computes dst = s * a. dst may alias a.
func Scale(dst, a *Tensor, s float64) {
	checkSame2(dst, a, "Scale")
	for i := range dst.Data {
		dst.Data[i] = s * a.Data[i]
	}
}

// AddScaled computes dst += s * a (axpy). dst must not equal a in shape only;
// aliasing is fine.
func AddScaled(dst, a *Tensor, s float64) {
	checkSame2(dst, a, "AddScaled")
	for i := range dst.Data {
		dst.Data[i] += s * a.Data[i]
	}
}

// Apply computes dst[i] = f(a[i]). dst may alias a.
func Apply(dst, a *Tensor, f func(float64) float64) {
	checkSame2(dst, a, "Apply")
	for i := range dst.Data {
		dst.Data[i] = f(a.Data[i])
	}
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: Dot size mismatch")
	}
	s := 0.0
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// AbsMax returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of t viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// AddRowVector adds vector v (length C) to every row of matrix m (R x C),
// writing into dst (R x C). dst may alias m.
func AddRowVector(dst, m, v *Tensor) {
	if m.Rank() != 2 || v.Len() != m.Dim(1) || !dst.SameShape(m) {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v %v %v", dst.shape, m.shape, v.shape))
	}
	r, c := m.Dim(0), m.Dim(1)
	for i := 0; i < r; i++ {
		row := m.Data[i*c : (i+1)*c]
		out := dst.Data[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			out[j] = row[j] + v.Data[j]
		}
	}
}

// SumRows sums matrix m (R x C) over rows into dst (length C).
func SumRows(dst, m *Tensor) {
	dst.Zero()
	AddSumRows(dst, m)
}

// AddSumRows adds the row sum of matrix m (R x C) into dst (length C): dst
// first, then the rows in order.
func AddSumRows(dst, m *Tensor) {
	if m.Rank() != 2 || dst.Len() != m.Dim(1) {
		panic("tensor: SumRows shape mismatch")
	}
	r, c := m.Dim(0), m.Dim(1)
	for i := 0; i < r; i++ {
		row := m.Data[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			dst.Data[j] += row[j]
		}
	}
}

// ArgMaxRows returns, for each row of a rank-2 tensor, the column index of
// its largest element.
func ArgMaxRows(m *Tensor) []int {
	if m.Rank() != 2 {
		panic("tensor: ArgMaxRows requires rank 2")
	}
	r, c := m.Dim(0), m.Dim(1)
	out := make([]int, r)
	for i := 0; i < r; i++ {
		row := m.Data[i*c : (i+1)*c]
		best, idx := row[0], 0
		for j := 1; j < c; j++ {
			if row[j] > best {
				best, idx = row[j], j
			}
		}
		out[i] = idx
	}
	return out
}

// SoftmaxRows computes a numerically-stable softmax over each row of m into
// dst. dst may alias m.
func SoftmaxRows(dst, m *Tensor) {
	if m.Rank() != 2 || !dst.SameShape(m) {
		panic("tensor: SoftmaxRows shape mismatch")
	}
	r, c := m.Dim(0), m.Dim(1)
	for i := 0; i < r; i++ {
		row := m.Data[i*c : (i+1)*c]
		out := dst.Data[i*c : (i+1)*c]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - mx)
			out[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range out {
			out[j] *= inv
		}
	}
}

// Transpose writes the transpose of rank-2 tensor a (R x C) into dst (C x R).
// dst must not alias a.
func Transpose(dst, a *Tensor) {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.Dim(0) != a.Dim(1) || dst.Dim(1) != a.Dim(0) {
		panic("tensor: Transpose shape mismatch")
	}
	r, c := a.Dim(0), a.Dim(1)
	// Blocked transpose for cache friendliness.
	const bs = 32
	for ii := 0; ii < r; ii += bs {
		for jj := 0; jj < c; jj += bs {
			iMax := min(ii+bs, r)
			jMax := min(jj+bs, c)
			for i := ii; i < iMax; i++ {
				for j := jj; j < jMax; j++ {
					dst.Data[j*r+i] = a.Data[i*c+j]
				}
			}
		}
	}
}

// ClipNorm scales t in place so its Euclidean norm does not exceed maxNorm,
// returning the pre-clip norm.
func (t *Tensor) ClipNorm(maxNorm float64) float64 {
	n := t.Norm2()
	if n > maxNorm && n > 0 {
		Scale(t, t, maxNorm/n)
	}
	return n
}

func checkSame2(a, b *Tensor, op string) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.shape, b.shape))
	}
}

func checkSame3(a, b, c *Tensor, op string) {
	if len(a.Data) != len(b.Data) || len(b.Data) != len(c.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch", op))
	}
}
