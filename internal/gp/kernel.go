// Package gp implements Gaussian-process regression as used by EdgeBOL
// (Ayala-Romero et al., CoNEXT '21, §5): anisotropic stationary kernels over
// the joint context–control space, closed-form posteriors with i.i.d.
// Gaussian observation noise (paper eq. 3–4), batched posterior sweeps
// over grids of candidate controls (SweepPlan), and
// log-marginal-likelihood hyperparameter fitting on prior data.
package gp

import (
	"fmt"
	"math"
)

// Kernel is a covariance function k(a, b) over R^d. Implementations must be
// symmetric, positive semi-definite, and stationary with k(z, z) <= 1
// (§5 "prior distribution").
type Kernel interface {
	// Eval returns k(a, b). Both inputs must have length Dim().
	Eval(a, b []float64) float64
	// EvalBatch computes the cross-covariances k(x_i, z) against every row
	// of the flat row-major input matrix xs — row i occupies
	// xs[i*stride : i*stride+Dim()] — writing k(x_i, z) into out[i] for
	// i < len(out). It is the bulk entry point of the posterior hot path:
	// one interface dispatch covers a whole training set, and
	// implementations hoist per-dimension work (e.g. length-scale
	// reciprocals) out of the inner loop.
	EvalBatch(xs []float64, stride int, z []float64, out []float64)
	// Prior returns the prior variance k(z, z), which stationarity makes a
	// constant independent of z (1 for the kernels in this package). The
	// posterior sweep uses it instead of evaluating Eval(z, z) per
	// candidate.
	Prior() float64
	// Dim returns the input dimensionality.
	Dim() int
}

// scaledSqDist returns the anisotropic squared distance
// Σ ((a_i-b_i)/l_i)², i.e. d(z,z')² from paper eq. 5.
func scaledSqDist(a, b, ls []float64) float64 {
	var s float64
	for i, l := range ls {
		//edgebol:allow nanguard -- length scales are validated positive by checkLengthScales at construction
		d := (a[i] - b[i]) / l
		s += d * d
	}
	return s
}

// invBufLen is the stack-buffer capacity for per-dimension reciprocal
// length scales in EvalBatch; EdgeBOL's joint feature space has 7
// dimensions, so the buffer covers every practical kernel without
// allocating.
const invBufLen = 16

// reciprocals fills buf (or a fresh slice when ls is longer) with 1/l_i,
// converting the per-pair divisions of eq. 5 into multiplications.
func reciprocals(ls []float64, buf *[invBufLen]float64) []float64 {
	inv := buf[:]
	if len(ls) > invBufLen {
		inv = make([]float64, len(ls))
	} else {
		inv = inv[:len(ls)]
	}
	for i, l := range ls {
		//edgebol:allow nanguard -- length scales are validated positive by checkLengthScales at construction
		inv[i] = 1 / l
	}
	return inv
}

// scaledSqDistInv is scaledSqDist with precomputed reciprocal length
// scales, accumulated in two independent chains so the floating-point adds
// pipeline.
func scaledSqDistInv(a, z, inv []float64) float64 {
	var s0, s1 float64
	j := 0
	for ; j+1 < len(inv); j += 2 {
		d0 := (a[j] - z[j]) * inv[j]
		d1 := (a[j+1] - z[j+1]) * inv[j+1]
		s0 += d0 * d0
		s1 += d1 * d1
	}
	if j < len(inv) {
		d := (a[j] - z[j]) * inv[j]
		s0 += d * d
	}
	return s0 + s1
}

// checkBatchArgs validates an EvalBatch call against the kernel dimension.
func checkBatchArgs(dim int, xs []float64, stride int, z []float64, out []float64) {
	if len(z) != dim {
		panic(fmt.Sprintf("gp: EvalBatch input dimension %d does not match kernel dimension %d", len(z), dim))
	}
	if stride < dim {
		panic(fmt.Sprintf("gp: EvalBatch stride %d below kernel dimension %d", stride, dim))
	}
	if len(out) > 0 && len(xs) < (len(out)-1)*stride+dim {
		panic(fmt.Sprintf("gp: EvalBatch matrix length %d too short for %d rows of stride %d", len(xs), len(out), stride))
	}
}

func checkLengthScales(ls []float64) {
	if len(ls) == 0 {
		panic("gp: kernel needs at least one length scale")
	}
	for i, l := range ls {
		if l <= 0 || math.IsNaN(l) {
			panic(fmt.Sprintf("gp: length scale %d is %v, must be positive", i, l))
		}
	}
}

// Matern32 is the anisotropic Matérn kernel with ν = 3/2 (paper eq. 6):
//
//	k(z, z') = (1 + √3·d)·exp(−√3·d),  d per eq. 5.
//
// It models functions that are at least once differentiable, the smoothness
// the paper chose for all objective and constraint surfaces.
type Matern32 struct {
	// LengthScales is the per-dimension length-scale vector L (eq. 5).
	LengthScales []float64
}

// NewMatern32 returns a Matérn-3/2 kernel with the given length scales.
func NewMatern32(lengthScales []float64) *Matern32 {
	checkLengthScales(lengthScales)
	return &Matern32{LengthScales: append([]float64(nil), lengthScales...)}
}

// Dim implements Kernel.
func (k *Matern32) Dim() int { return len(k.LengthScales) }

// Prior implements Kernel.
func (k *Matern32) Prior() float64 { return 1 }

// Eval implements Kernel.
func (k *Matern32) Eval(a, b []float64) float64 {
	//edgebol:allow nanguard -- scaledSqDist is a sum of squares, non-negative by construction
	d := math.Sqrt(3 * scaledSqDist(a, b, k.LengthScales))
	return (1 + d) * math.Exp(-d)
}

// EvalBatch implements Kernel.
func (k *Matern32) EvalBatch(xs []float64, stride int, z []float64, out []float64) {
	checkBatchArgs(len(k.LengthScales), xs, stride, z, out)
	var buf [invBufLen]float64
	inv := reciprocals(k.LengthScales, &buf)
	for i := range out {
		row := xs[i*stride:]
		//edgebol:allow nanguard -- scaledSqDistInv is a sum of squares, non-negative by construction
		d := math.Sqrt(3 * scaledSqDistInv(row, z, inv))
		out[i] = (1 + d) * math.Exp(-d)
	}
}

// Matern52 is the anisotropic Matérn kernel with ν = 5/2:
//
//	k = (1 + √5·d + 5d²/3)·exp(−√5·d).
//
// Included for the kernel-choice ablation.
type Matern52 struct {
	LengthScales []float64
}

// NewMatern52 returns a Matérn-5/2 kernel with the given length scales.
func NewMatern52(lengthScales []float64) *Matern52 {
	checkLengthScales(lengthScales)
	return &Matern52{LengthScales: append([]float64(nil), lengthScales...)}
}

// Dim implements Kernel.
func (k *Matern52) Dim() int { return len(k.LengthScales) }

// Prior implements Kernel.
func (k *Matern52) Prior() float64 { return 1 }

// Eval implements Kernel.
func (k *Matern52) Eval(a, b []float64) float64 {
	s2 := 5 * scaledSqDist(a, b, k.LengthScales)
	//edgebol:allow nanguard -- s2 scales a sum of squares, non-negative by construction
	d := math.Sqrt(s2)
	return (1 + d + s2/3) * math.Exp(-d)
}

// EvalBatch implements Kernel.
func (k *Matern52) EvalBatch(xs []float64, stride int, z []float64, out []float64) {
	checkBatchArgs(len(k.LengthScales), xs, stride, z, out)
	var buf [invBufLen]float64
	inv := reciprocals(k.LengthScales, &buf)
	for i := range out {
		row := xs[i*stride:]
		s2 := 5 * scaledSqDistInv(row, z, inv)
		//edgebol:allow nanguard -- s2 scales a sum of squares, non-negative by construction
		d := math.Sqrt(s2)
		out[i] = (1 + d + s2/3) * math.Exp(-d)
	}
}

// RBF is the anisotropic squared-exponential kernel
// k = exp(−d²/2). Included for the kernel-choice ablation.
type RBF struct {
	LengthScales []float64
}

// NewRBF returns an RBF kernel with the given length scales.
func NewRBF(lengthScales []float64) *RBF {
	checkLengthScales(lengthScales)
	return &RBF{LengthScales: append([]float64(nil), lengthScales...)}
}

// Dim implements Kernel.
func (k *RBF) Dim() int { return len(k.LengthScales) }

// Prior implements Kernel.
func (k *RBF) Prior() float64 { return 1 }

// Eval implements Kernel.
func (k *RBF) Eval(a, b []float64) float64 {
	return math.Exp(-0.5 * scaledSqDist(a, b, k.LengthScales))
}

// EvalBatch implements Kernel.
func (k *RBF) EvalBatch(xs []float64, stride int, z []float64, out []float64) {
	checkBatchArgs(len(k.LengthScales), xs, stride, z, out)
	var buf [invBufLen]float64
	inv := reciprocals(k.LengthScales, &buf)
	for i := range out {
		row := xs[i*stride:]
		out[i] = math.Exp(-0.5 * scaledSqDistInv(row, z, inv))
	}
}
