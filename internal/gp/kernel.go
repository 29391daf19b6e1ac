// Package gp implements Gaussian-process regression as used by EdgeBOL
// (Ayala-Romero et al., CoNEXT '21, §5): anisotropic stationary kernels over
// the joint context–control space, closed-form posteriors with i.i.d.
// Gaussian observation noise (paper eq. 3–4), batched posterior sweeps
// over grids of candidate controls (SweepPlan), and
// log-marginal-likelihood hyperparameter fitting on prior data.
package gp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Family selects the covariance κ(d²) a Kernel applies to the anisotropic
// squared distance d² of paper eq. 5. Every family is stationary with
// κ(0) = 1 (§5 "prior distribution").
type Family int

const (
	// Matern32 is the Matérn kernel with ν = 3/2 (paper eq. 6),
	//
	//	κ = (1 + √3·d)·exp(−√3·d).
	//
	// It models functions that are at least once differentiable, the
	// smoothness the paper chose for all objective and constraint
	// surfaces, and is the zero value.
	Matern32 Family = iota
	// Matern52 is the Matérn kernel with ν = 5/2,
	//
	//	κ = (1 + √5·d + 5d²/3)·exp(−√5·d).
	//
	// Included for the kernel-choice ablation.
	Matern52
	// RBF is the squared-exponential kernel κ = exp(−d²/2). Included for
	// the kernel-choice ablation.
	RBF
)

// priorVar is the prior variance k(z, z) = κ(0) of every family; the
// posterior paths use it instead of evaluating the kernel at distance zero.
const priorVar = 1.0

// String returns the family's stable name: "matern32", "matern52" or
// "rbf". Checkpoints record it to catch a GP being restored under a
// different covariance model.
func (f Family) String() string {
	switch f {
	case Matern32:
		return "matern32"
	case Matern52:
		return "matern52"
	case RBF:
		return "rbf"
	}
	return fmt.Sprintf("gp.Family(%d)", int(f))
}

// cov maps squared scaled distances to covariances in place. It is the one
// definition of each family's κ(d²): Kernel.EvalBatch and the sweep plan
// both apply it, so the single-point and the grid paths share the formula
// by construction. Where covVector is set the AVX2 body sets whole 4-lane
// blocks, each lane bitwise equal to covScalar; covScalar takes the tail
// and any block the vector body stopped at.
//
//edgebol:hot
func (f Family) cov(d2s []float64) {
	for covVector && len(d2s) >= 4 {
		d2s = d2s[covAVX2(f, d2s):]
		m := min(len(d2s), 4)
		f.covScalar(d2s[:m])
		d2s = d2s[m:]
	}
	f.covScalar(d2s)
}

// covScalar is the scalar loop, the definition every vector lane
// reproduces: the family's own steps in this order around math.Exp.
//
//edgebol:hot
func (f Family) covScalar(d2s []float64) {
	switch f {
	case Matern32:
		for i, d2 := range d2s {
			//edgebol:allow nanguard -- d2 is a squared distance, non-negative by construction
			d := math.Sqrt(3 * d2)
			d2s[i] = (1 + d) * math.Exp(-d)
		}
	case Matern52:
		for i, d2 := range d2s {
			s2 := 5 * d2
			//edgebol:allow nanguard -- s2 scales a squared distance, non-negative by construction
			d := math.Sqrt(s2)
			d2s[i] = (1 + d + s2/3) * math.Exp(-d)
		}
	default: // RBF; NewKernel admits no other family
		for i, d2 := range d2s {
			d2s[i] = math.Exp(-0.5 * d2)
		}
	}
}

// covVector reports whether Family.cov and fillSqDist's (2, 3) branch run
// their AVX2 bodies (cov_amd64.s), set once at init: the CPU and the OS
// must support AVX2 and FMA (linalg.DetectCPU), and the bodies must
// reproduce the scalar loop bitwise on the probe column. They copy
// math.Exp's FMA sequence, and math.Exp itself runs another one when
// GODEBUG sets cpu.fma=off or cpu.avx=off, or when the toolchain's
// sequence has changed: the probe catches each of these. Tests toggle it
// to pin both paths against the scalar loop.
var covVector = covVectorSupported(linalg.DetectCPU()) && covProbeMatches()

// covVectorSupported reports whether cpu offers the vector bodies'
// instructions.
func covVectorSupported(cpu linalg.CPUFeatures) bool {
	return cpu.AVX2 && cpu.FMA
}

// covProbe returns the fixed probe column, the squared distances 0, 1/8,
// …, 255/8: whole blocks only, with exp arguments down to −9.8
// (Matérn-3/2), −12.6 (Matérn-5/2) and −15.9 (RBF), and for each family
// dozens on which math.Exp's FMA and non-FMA sequences round differently
// (TestCovProbeDiscriminatesExp).
func covProbe() []float64 {
	d2s := make([]float64, 256)
	for i := range d2s {
		d2s[i] = float64(i) / 8
	}
	return d2s
}

// covProbeMatches reports whether the vector body sets every element of
// the probe column, for every family, bitwise equal to covScalar.
func covProbeMatches() bool {
	for _, f := range []Family{Matern32, Matern52, RBF} {
		want, got := covProbe(), covProbe()
		f.covScalar(want)
		if covAVX2(f, got) != len(got) || !sameBits(got, want) {
			return false
		}
	}
	return true
}

// Kernel is an anisotropic stationary covariance k(z, z') = κ(d(z,z')²)
// over R^d: a Family applied to the squared distance
// d² = Σ ((z_i−z'_i)/l_i)² of paper eq. 5. It is immutable; construct it
// with NewKernel.
type Kernel struct {
	family Family
	ls     []float64 // per-dimension length scales L (eq. 5)
	inv    []float64 // 1/l_i, turning the divisions of eq. 5 into products
}

// NewKernel returns a kernel of the given family over len(lengthScales)
// dimensions. It rejects an unknown family, an empty length-scale vector
// and any length scale that is not positive. The slice is copied.
func NewKernel(family Family, lengthScales []float64) (*Kernel, error) {
	if family < Matern32 || family > RBF {
		return nil, fmt.Errorf("gp: unknown kernel family %v", family)
	}
	if len(lengthScales) == 0 {
		return nil, errors.New("gp: kernel needs at least one length scale")
	}
	k := &Kernel{
		family: family,
		ls:     append([]float64(nil), lengthScales...),
		inv:    make([]float64, len(lengthScales)),
	}
	for i, l := range lengthScales {
		if l <= 0 || math.IsNaN(l) {
			return nil, fmt.Errorf("gp: length scale %d is %v, must be positive", i, l)
		}
		k.inv[i] = 1 / l
	}
	return k, nil
}

// Dim returns the input dimensionality.
func (k *Kernel) Dim() int { return len(k.ls) }

// EvalBatch computes the cross-covariances k(x_i, z) against every row of
// the flat row-major input matrix xs — row i occupies
// xs[i*stride : i*stride+Dim()] — writing k(x_i, z) into out[i] for
// i < len(out). It is the bulk entry point of the posterior hot path: the
// squared distances are written into out, then one Family.cov pass maps
// them to covariances.
func (k *Kernel) EvalBatch(xs []float64, stride int, z []float64, out []float64) {
	dim := len(k.ls)
	if len(z) != dim {
		panic(fmt.Sprintf("gp: EvalBatch input dimension %d does not match kernel dimension %d", len(z), dim))
	}
	if stride < dim {
		panic(fmt.Sprintf("gp: EvalBatch stride %d below kernel dimension %d", stride, dim))
	}
	if len(out) > 0 && len(xs) < (len(out)-1)*stride+dim {
		panic(fmt.Sprintf("gp: EvalBatch matrix length %d too short for %d rows of stride %d", len(xs), len(out), stride))
	}
	for i := range out {
		out[i] = scaledSqDistInv(xs[i*stride:], z, k.inv)
	}
	k.family.cov(out)
}

// scaledSqDistInv returns the anisotropic squared distance
// Σ ((a_i−z_i)·inv_i)², i.e. d(z,z')² from paper eq. 5 with reciprocal
// length scales, accumulated in two independent chains so the
// floating-point adds pipeline. Each square is rounded before it is added
// (the explicit conversion forbids a fused multiply-add), so the sum is
// the one the sweep plan assembles from its tables of rounded squares on
// every architecture.
func scaledSqDistInv(a, z, inv []float64) float64 {
	var s0, s1 float64
	j := 0
	for ; j+1 < len(inv); j += 2 {
		d0 := (a[j] - z[j]) * inv[j]
		d1 := (a[j+1] - z[j+1]) * inv[j+1]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
	}
	if j < len(inv) {
		d := (a[j] - z[j]) * inv[j]
		s0 += float64(d * d)
	}
	return s0 + s1
}
