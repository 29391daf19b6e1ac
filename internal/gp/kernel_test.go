package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var families = []Family{Matern32, Matern52, RBF}

// mustKernel builds a kernel for tests, panicking on invalid input.
func mustKernel(f Family, ls []float64) *Kernel {
	k, err := NewKernel(f, ls)
	if err != nil {
		panic(err)
	}
	return k
}

func kernels(ls []float64) []*Kernel {
	out := make([]*Kernel, len(families))
	for i, f := range families {
		out[i] = mustKernel(f, ls)
	}
	return out
}

// refEval is the textbook kernel formula the production path is checked
// against: the scaled squared distance of paper eq. 5 with a division per
// dimension, then each family's covariance written out per pair.
func refEval(f Family, ls, a, b []float64) float64 {
	var s float64
	for i, l := range ls {
		d := (a[i] - b[i]) / l
		s += d * d
	}
	switch f {
	case Matern32:
		d := math.Sqrt(3 * s)
		return (1 + d) * math.Exp(-d)
	case Matern52:
		s2 := 5 * s
		d := math.Sqrt(s2)
		return (1 + d + s2/3) * math.Exp(-d)
	default:
		return math.Exp(-0.5 * s)
	}
}

// eval returns k(a, b) through the production path, a one-row EvalBatch.
func eval(k *Kernel, a, b []float64) float64 {
	var out [1]float64
	k.EvalBatch(a, len(a), b, out[:])
	return out[0]
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestKernelSelfCovarianceIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range kernels([]float64{0.5, 1.5, 2}) {
		for trial := 0; trial < 20; trial++ {
			x := randVec(rng, 3)
			if v := eval(k, x, x); math.Abs(v-1) > 1e-12 {
				t.Fatalf("%v: k(x,x) = %v, want 1", k.family, v)
			}
		}
	}
}

func TestKernelSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ls := []float64{0.3, 0.7, 1.1, 2.2}
		a, b := randVec(rng, 4), randVec(rng, 4)
		for _, k := range kernels(ls) {
			if math.Abs(eval(k, a, b)-eval(k, b, a)) > 1e-14 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKernelBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randVec(rng, 2), randVec(rng, 2)
		for _, k := range kernels([]float64{0.4, 0.9}) {
			v := eval(k, a, b)
			if v < 0 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKernelMonotoneDecayWithDistance(t *testing.T) {
	// Along a ray from the origin, covariance must decrease.
	for _, k := range kernels([]float64{1}) {
		prev := math.Inf(1)
		for d := 0.0; d <= 5; d += 0.25 {
			v := eval(k, []float64{0}, []float64{d})
			if v > prev+1e-12 {
				t.Fatalf("%v: covariance not monotone at distance %v", k.family, d)
			}
			prev = v
		}
	}
}

func TestKernelAnisotropy(t *testing.T) {
	// A short length scale on dim 0 makes displacement there decay faster
	// than the same displacement on dim 1.
	k := mustKernel(Matern32, []float64{0.1, 10})
	near := eval(k, []float64{0, 0}, []float64{0, 1})
	far := eval(k, []float64{0, 0}, []float64{1, 0})
	if far >= near {
		t.Fatalf("anisotropy broken: along-short-scale %v >= along-long-scale %v", far, near)
	}
}

func TestKernelStationarity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, shift := randVec(rng, 3), randVec(rng, 3), randVec(rng, 3)
		as, bs := make([]float64, 3), make([]float64, 3)
		for i := range shift {
			as[i], bs[i] = a[i]+shift[i], b[i]+shift[i]
		}
		for _, k := range kernels([]float64{0.5, 1, 2}) {
			if math.Abs(eval(k, a, b)-eval(k, as, bs)) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKernelClosedForm pins each family's κ against its closed form on a
// 21-row EvalBatch column, scaled distances d = 0, 0.15, …, 3: five whole
// 4-lane blocks and a tail, so the vector body, where init chose it, and
// the scalar loop are both checked against the formula itself. EvalBatch
// and the sweep plan share Family.cov.
func TestKernelClosedForm(t *testing.T) {
	const l = 2.0
	xs := make([]float64, 21) // one-dimensional rows; d_i = xs[i] / l
	for i := range xs {
		xs[i] = 0.3 * float64(i)
	}
	closed := map[Family]func(d float64) float64{
		Matern32: func(d float64) float64 { return (1 + math.Sqrt(3)*d) * math.Exp(-math.Sqrt(3)*d) },
		Matern52: func(d float64) float64 { return (1 + math.Sqrt(5)*d + 5*d*d/3) * math.Exp(-math.Sqrt(5)*d) },
		RBF:      func(d float64) float64 { return math.Exp(-d * d / 2) },
	}
	for _, f := range families {
		out := make([]float64, len(xs))
		mustKernel(f, []float64{l}).EvalBatch(xs, 1, []float64{0}, out)
		for i, got := range out {
			d := xs[i] / l
			if want := closed[f](d); math.Abs(got-want) > 1e-12 {
				t.Errorf("%v at d=%v: %v, want %v", f, d, got, want)
			}
		}
	}
}

func TestNewKernelRejectsBadInput(t *testing.T) {
	for _, bad := range [][]float64{nil, {}, {0}, {-1}, {math.NaN()}} {
		if _, err := NewKernel(Matern32, bad); err == nil {
			t.Errorf("expected error for length scales %v", bad)
		}
	}
	for _, f := range []Family{-1, RBF + 1} {
		if _, err := NewKernel(f, []float64{1}); err == nil {
			t.Errorf("expected error for family %d", int(f))
		}
	}
}

func TestKernelDim(t *testing.T) {
	for _, k := range kernels([]float64{1, 2, 3}) {
		if k.Dim() != 3 {
			t.Fatalf("%v: Dim = %d, want 3", k.family, k.Dim())
		}
	}
}

func TestMatern52SmootherThanMatern32(t *testing.T) {
	// Near the origin the smoother kernel stays closer to 1.
	m32 := mustKernel(Matern32, []float64{1})
	m52 := mustKernel(Matern52, []float64{1})
	a, b := []float64{0}, []float64{0.2}
	if eval(m52, a, b) <= eval(m32, a, b) {
		t.Fatal("Matern52 should decay slower near zero than Matern32")
	}
}
