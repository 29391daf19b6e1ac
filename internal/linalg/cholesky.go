package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a matrix cannot be factorized even
// after the maximum jitter has been applied to its diagonal.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds a lower-triangular Cholesky factor L with A = L·Lᵀ.
//
// It supports incremental growth: Append extends the factor by one row and
// column in O(n²), which is what lets the GP add one observation per control
// period without refactorizing its whole kernel matrix.
type Cholesky struct {
	n int
	// l stores the lower triangle row-major: row i occupies
	// l[i*(i+1)/2 : i*(i+1)/2 + i + 1].
	l []float64
	// jitter actually applied to the diagonal during factorization.
	jitter float64
}

// DefaultJitter is the initial diagonal regularization tried when a matrix
// is numerically semi-definite.
const DefaultJitter = 1e-10

// maxJitter bounds the progressive jitter escalation.
const maxJitter = 1e-2

// NewCholesky factorizes the symmetric positive-definite matrix a
// (only its lower triangle is read). If the factorization encounters a
// non-positive pivot, it retries with progressively larger diagonal jitter,
// up to a limit, and records the jitter used.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	c := &Cholesky{n: n, l: make([]float64, n*(n+1)/2)}
	jitter := 0.0
	for {
		if err := c.factorize(a, jitter); err == nil {
			c.jitter = jitter
			return c, nil
		}
		if jitter == 0 {
			jitter = DefaultJitter
		} else {
			jitter *= 100
		}
		if jitter > maxJitter {
			return nil, ErrNotPositiveDefinite
		}
	}
}

func (c *Cholesky) factorize(a *Matrix, jitter float64) error {
	n := c.n
	for i := 0; i < n; i++ {
		ri := c.rowStart(i)
		for j := 0; j <= i; j++ {
			rj := c.rowStart(j)
			sum := a.At(i, j)
			if i == j {
				sum += jitter
			}
			for k := 0; k < j; k++ {
				sum -= c.l[ri+k] * c.l[rj+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotPositiveDefinite
				}
				c.l[ri+j] = math.Sqrt(sum)
			} else {
				c.l[ri+j] = sum / c.l[rj+j]
			}
		}
	}
	return nil
}

func (c *Cholesky) rowStart(i int) int { return i * (i + 1) / 2 }

// Size returns the dimension of the factorized matrix.
func (c *Cholesky) Size() int { return c.n }

// Jitter returns the diagonal jitter that was applied during factorization.
func (c *Cholesky) Jitter() float64 { return c.jitter }

// LAt returns element (i,j) of the lower-triangular factor (zero for j > i).
func (c *Cholesky) LAt(i, j int) float64 {
	if j > i {
		return 0
	}
	return c.l[c.rowStart(i)+j]
}

// Append grows the factor by one row/column for the bordered matrix
//
//	A' = [ A  b ]
//	     [ bᵀ d ]
//
// where b has length Size() and d is the new diagonal entry. It runs in
// O(n²). If the implied new pivot is non-positive, jitter is added to d up
// to the package limit; beyond that ErrNotPositiveDefinite is returned and
// the factor is unchanged.
func (c *Cholesky) Append(b []float64, d float64) error {
	if len(b) != c.n {
		return fmt.Errorf("linalg: Append vector length %d does not match size %d", len(b), c.n)
	}
	// Solve L·w = b for w: the new row of the factor.
	w := make([]float64, c.n+1)
	copy(w, b)
	c.ForwardSolve(w[:c.n])
	pivot := d + c.jitter - Dot(w[:c.n], w[:c.n])
	jitter := c.jitter
	for pivot <= 0 || math.IsNaN(pivot) {
		if jitter == 0 {
			jitter = DefaultJitter
		} else {
			jitter *= 100
		}
		if jitter > maxJitter {
			return ErrNotPositiveDefinite
		}
		pivot = d + jitter - Dot(w[:c.n], w[:c.n])
	}
	// Note: escalating jitter here only regularizes the appended diagonal
	// entry; earlier pivots keep the jitter recorded at factorization time.
	w[c.n] = math.Sqrt(pivot)
	c.l = append(c.l, w...)
	c.n++
	return nil
}

// SolveVec solves A·x = y in place using the factorization
// (forward then backward substitution). It returns x (same slice as y).
func (c *Cholesky) SolveVec(y []float64) []float64 {
	if len(y) != c.n {
		panic(fmt.Sprintf("linalg: SolveVec length %d does not match size %d", len(y), c.n))
	}
	c.ForwardSolve(y)
	c.BackwardSolve(y)
	return y
}

// ForwardSolve solves L·x = y in place.
func (c *Cholesky) ForwardSolve(y []float64) {
	for i := 0; i < c.n; i++ {
		ri := c.rowStart(i)
		sum := y[i]
		for k := 0; k < i; k++ {
			sum -= c.l[ri+k] * y[k]
		}
		y[i] = sum / c.l[ri+i]
	}
}

// solveBlock is the number of right-hand sides ForwardSolveBatch advances
// through the factor together, sharing each row of L across the block.
const solveBlock = 4

// ForwardSolveBatch solves L·x = y in place for every right-hand side in
// ys (each of length Size()). It advances solveBlock right-hand sides
// through the factor together, so each O(n²) sweep over the triangular
// rows is streamed from memory once per block instead of once per solve,
// and the independent accumulator chains pipeline — the cache and ILP
// behaviour that dominates the GP posterior sweep.
//
// Per right-hand side the arithmetic (accumulation order, one reciprocal
// multiply per row) is identical in the blocked and remainder paths, so
// results are bitwise independent of how callers split a candidate set
// into batches or shard it across goroutines. Each product is rounded
// before it is added: the explicit float64 conversion forbids the
// compiler to fuse a multiply-add, which arm64 could otherwise do in one
// path and not the other.
func (c *Cholesky) ForwardSolveBatch(ys [][]float64) {
	for _, y := range ys {
		if len(y) != c.n {
			panic(fmt.Sprintf("linalg: ForwardSolveBatch length %d does not match size %d", len(y), c.n))
		}
	}
	for len(ys) >= solveBlock {
		c.forwardSolve4(ys[0], ys[1], ys[2], ys[3])
		ys = ys[solveBlock:]
	}
	for _, y := range ys {
		c.forwardSolve1(y)
	}
}

// forwardSolve4 runs four forward substitutions in one pass over L. Four
// independent accumulator chains are the sweet spot on x86-64: enough to
// pipeline the FP adds without spilling accumulators to the stack (an
// 8-wide variant measured slower for exactly that reason).
func (c *Cholesky) forwardSolve4(y0, y1, y2, y3 []float64) {
	n := c.n
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	for i := 0; i < n; i++ {
		ri := c.rowStart(i)
		lrow := c.l[ri : ri+i]
		inv := 1 / c.l[ri+i]
		var s0, s1, s2, s3 float64
		for k, lv := range lrow {
			s0 += float64(lv * y0[k])
			s1 += float64(lv * y1[k])
			s2 += float64(lv * y2[k])
			s3 += float64(lv * y3[k])
		}
		y0[i] = (y0[i] - s0) * inv
		y1[i] = (y1[i] - s1) * inv
		y2[i] = (y2[i] - s2) * inv
		y3[i] = (y3[i] - s3) * inv
	}
}

// forwardSolve1 is the single-vector remainder path of ForwardSolveBatch,
// with per-element arithmetic identical to forwardSolve4.
func (c *Cholesky) forwardSolve1(y []float64) {
	n := c.n
	y = y[:n]
	for i := 0; i < n; i++ {
		ri := c.rowStart(i)
		lrow := c.l[ri : ri+i]
		inv := 1 / c.l[ri+i]
		var s float64
		for k, lv := range lrow {
			s += float64(lv * y[k])
		}
		y[i] = (y[i] - s) * inv
	}
}

// BackwardSolve solves Lᵀ·x = y in place.
func (c *Cholesky) BackwardSolve(y []float64) {
	for i := c.n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < c.n; k++ {
			sum -= c.l[c.rowStart(k)+i] * y[k]
		}
		y[i] = sum / c.l[c.rowStart(i)+i]
	}
}

// FactorData returns a copy of the packed lower-triangular factor: row i
// occupies out[i*(i+1)/2 : i*(i+1)/2+i+1]. Together with Jitter it is the
// factorization's complete state, so a factor restored through
// NewCholeskyFromFactor reproduces every solve bitwise — including factors
// whose entries depend on the exact append/rebuild history that produced
// them, which a refactorization could not replay.
func (c *Cholesky) FactorData() []float64 {
	return append([]float64(nil), c.l...)
}

// SameFactor reports whether c and o hold bitwise-equal factors: the same
// size and the same bit pattern in every packed entry, so every solve
// against one reproduces the other's result. It reads both factors in
// place and allocates nothing; the jitter, which no solve reads, is not
// compared.
func (c *Cholesky) SameFactor(o *Cholesky) bool {
	if c.n != o.n {
		return false
	}
	for i, v := range c.l {
		if math.Float64bits(v) != math.Float64bits(o.l[i]) {
			return false
		}
	}
	return true
}

// NewCholeskyFromFactor reconstructs a Cholesky from a packed factor
// previously obtained via FactorData. It validates the packed length and
// that every entry is finite with strictly positive diagonals — the
// invariants every factorization path establishes — so a corrupted or
// hostile snapshot is rejected instead of poisoning later solves.
func NewCholeskyFromFactor(n int, l []float64, jitter float64) (*Cholesky, error) {
	if n < 0 {
		return nil, fmt.Errorf("linalg: negative factor size %d", n)
	}
	if want := n * (n + 1) / 2; len(l) != want {
		return nil, fmt.Errorf("linalg: packed factor length %d does not match size %d (want %d)", len(l), n, want)
	}
	if math.IsNaN(jitter) || math.IsInf(jitter, 0) || jitter < 0 {
		return nil, fmt.Errorf("linalg: invalid factor jitter %v", jitter)
	}
	c := &Cholesky{n: n, l: append([]float64(nil), l...), jitter: jitter}
	for i := 0; i < n; i++ {
		ri := c.rowStart(i)
		for j := 0; j <= i; j++ {
			v := c.l[ri+j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("linalg: non-finite factor entry %v at (%d,%d)", v, i, j)
			}
		}
		if c.l[ri+i] <= 0 {
			return nil, fmt.Errorf("linalg: non-positive factor diagonal %v at %d", c.l[ri+i], i)
		}
	}
	return c, nil
}

// LogDet returns log det(A) = 2·Σ log L[i,i].
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[c.rowStart(i)+i])
	}
	return 2 * s
}

// Reconstruct returns L·Lᵀ, mainly for tests.
func (c *Cholesky) Reconstruct() *Matrix {
	a := NewMatrix(c.n, c.n)
	for i := 0; i < c.n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += c.LAt(i, k) * c.LAt(j, k)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a
}
