package linalg

import (
	"fmt"
	"math"
)

// Rank1Update rewrites the factor in place so that it factorizes
// A + x·xᵀ, where A = L·Lᵀ is the currently factorized matrix. It runs
// one pass of Givens-style rotations over the packed rows in O(n²) —
// the streaming-update primitive of the sparse GP engine, which folds
// one observation's cross-covariance into the m×m information factor
// per control period instead of refactorizing it.
//
// A positive-semidefinite update cannot destroy positive definiteness,
// so Rank1Update always succeeds; x is consumed as scratch and holds
// unspecified values afterwards.
func (c *Cholesky) Rank1Update(x []float64) {
	if len(x) != c.n {
		panic(fmt.Sprintf("linalg: Rank1Update vector length %d does not match size %d", len(x), c.n))
	}
	n := c.n
	for k := 0; k < n; k++ {
		rk := c.rowStart(k)
		lkk := c.l[rk+k]
		xk := x[k]
		r := math.Sqrt(lkk*lkk + xk*xk)
		//edgebol:allow nanguard -- lkk > 0: factor diagonals are positive by invariant
		cth := r / lkk
		sth := xk / lkk
		c.l[rk+k] = r
		if sth == 0 { //edgebol:allow floateq -- exact-zero rotation is a no-op for the whole column; skipping it changes nothing
			continue
		}
		for i := k + 1; i < n; i++ {
			ri := c.rowStart(i) + k
			//edgebol:allow nanguard -- cth = r/lkk ≥ 1 since r = √(lkk²+xk²) ≥ lkk > 0
			lik := (c.l[ri] + sth*x[i]) / cth
			x[i] = cth*x[i] - sth*lik
			c.l[ri] = lik
		}
	}
}

// DropLeading shrinks the factor to the trailing (n−k)×(n−k) principal
// submatrix of the factorized A: if A is partitioned with its first k
// rows/columns removed, the result factorizes A₂₂ exactly (up to
// rounding). It exploits A₂₂ = L₂₂·L₂₂ᵀ + L₂₁·L₂₁ᵀ: the retained block
// of the old factor is promoted in place and one positive rank-1 update
// per dropped column folds L₂₁ back in — k·(n−k)² work with no Gram
// matrix rebuild and no kernel re-evaluations, which is what makes the
// GP's sliding-window eviction cheaper than a from-scratch refit.
//
// Positive updates preserve positive definiteness, so DropLeading
// always succeeds. The recorded jitter is unchanged: the dropped and
// retained diagonals carried the same regularization.
func (c *Cholesky) DropLeading(k int) {
	if k < 0 || k > c.n {
		panic(fmt.Sprintf("linalg: DropLeading %d of %d rows", k, c.n))
	}
	if k == 0 {
		return
	}
	n := c.n
	m := n - k
	// Save the L₂₁ block column-major: col[j][i] = L[k+i, j].
	cols := make([]float64, k*m)
	for i := 0; i < m; i++ {
		ri := c.rowStart(k + i)
		for j := 0; j < k; j++ {
			cols[j*m+i] = c.l[ri+j]
		}
	}
	// Promote L₂₂ into a packed m×m factor.
	l := make([]float64, m*(m+1)/2)
	for i := 0; i < m; i++ {
		src := c.rowStart(k+i) + k
		dst := i * (i + 1) / 2
		copy(l[dst:dst+i+1], c.l[src:src+i+1])
	}
	c.n = m
	c.l = l
	for j := 0; j < k; j++ {
		c.Rank1Update(cols[j*m : (j+1)*m])
	}
}
