// Package linalg provides the small dense linear-algebra kernel used by the
// Gaussian-process machinery: a row-major matrix type, Cholesky
// factorization with jitter and incremental rank-append updates, and
// triangular solves.
//
// The package is deliberately minimal — it implements exactly what GP
// regression needs, with predictable allocation behaviour (callers can reuse
// buffers) and no external dependencies.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64.
// The zero value is an empty (0x0) matrix ready for use with Resize.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns an r-by-c matrix of zeros.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewMatrixFrom returns an r-by-c matrix with contents copied from data,
// which must have length r*c and is interpreted row-major.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), r, c))
	}
	m := NewMatrix(r, c)
	copy(m.data, data)
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns the i-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Resize reshapes m to r-by-c, reusing the backing slice when it has
// sufficient capacity. Contents are zeroed.
func (m *Matrix) Resize(r, c int) {
	n := r * c
	if cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		for i := range m.data {
			m.data[i] = 0
		}
	}
	m.rows, m.cols = r, c
}

// MulVec computes y = m · x, allocating y. x must have length m.Cols().
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec length %d does not match cols %d", len(x), m.cols))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Dot returns the inner product of two equal-length vectors, rounding
// each product before it is added (no fused multiply-add), like the
// forward solves' sums.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	//edgebol:allow nanguard -- Dot(v, v) is a sum of squares, non-negative by construction
	return math.Sqrt(Dot(v, v))
}

// MaxAbsDiff returns the largest absolute element-wise difference between a
// and b, useful for approximate-equality checks in tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i, v := range a.data {
		d := math.Abs(v - b.data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.rows, m.cols)
	if m.rows*m.cols <= 64 {
		for i := 0; i < m.rows; i++ {
			s += fmt.Sprintf("\n%v", m.Row(i))
		}
	}
	return s
}
