package gp

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// forEachCovPath runs fn on the scalar loops and, where init chose them,
// on the vector bodies, restoring init's choice after.
func forEachCovPath(t *testing.T, fn func(t *testing.T)) {
	detected := covVector
	defer func() { covVector = detected }()
	for _, vector := range covPaths(detected) {
		covVector = vector
		t.Run(covPathName(vector), fn)
	}
}

// covPaths lists the paths a test or benchmark can run: the scalar loops,
// and the vector bodies where init chose them.
func covPaths(detected bool) []bool {
	if detected {
		return []bool{false, true}
	}
	return []bool{false}
}

// covPathName names a path in subtest and benchmark names.
func covPathName(vector bool) string {
	if vector {
		return "avx2"
	}
	return "scalar"
}

// covInputs returns n squared distances spread log-uniformly over
// [1e-12, 1e6], with every special case sprinkled in: 0, −0, +Inf, NaN,
// a negative value, and the squared distances whose exp argument sits
// just inside and just outside −708 for each family.
func covInputs(rng *rand.Rand, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), -1,
		708 * 708 / 3, math.Nextafter(708*708/3, 0), math.Nextafter(708*708/3, math.Inf(1)),
		708 * 708 / 5, math.Nextafter(708*708/5, 0), math.Nextafter(708*708/5, math.Inf(1)),
		1416, math.Nextafter(1416, 0), math.Nextafter(1416, math.Inf(1))}
	d2s := make([]float64, n)
	for i := range d2s {
		if rng.Intn(50) == 0 {
			d2s[i] = special[rng.Intn(len(special))]
			continue
		}
		d2s[i] = math.Pow(10, -12+18*rng.Float64())
	}
	return d2s
}

// requireSameBits fails unless got and want hold the same bit patterns.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s element %d: %x (%v), scalar loop %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestCovVectorMatchesScalar pins the vector covariance kernel: on both
// paths, for every family, Family.cov equals the scalar loop bitwise at
// every length 0–67 (every tail after 0–16 whole blocks), on subslices
// starting at every offset 0–7 (unaligned loads and stores), and on a
// large input set with 0, Inf, NaN and exp arguments on both sides of
// −708; elements outside the slice are never touched. On in-range inputs the vector body
// sets every whole block, so the comparison is not scalar against scalar.
func TestCovVectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	forEachCovPath(t, func(t *testing.T) {
		for _, f := range families {
			for n := 0; n <= 67; n++ {
				for off := 0; off < 8; off++ {
					buf := covInputs(rng, off+n+8)
					want := append([]float64(nil), buf...)
					f.covScalar(want[off : off+n])
					got := append([]float64(nil), buf...)
					f.cov(got[off : off+n : off+n])
					requireSameBits(t, fmt.Sprintf("%v n=%d off=%d", f, n, off), got, want)
				}
			}
			big := covInputs(rng, 1<<16)
			want := append([]float64(nil), big...)
			f.covScalar(want)
			f.cov(big)
			requireSameBits(t, fmt.Sprintf("%v large", f), big, want)

			if inRange := covProbe(); covVector && covAVX2(f, inRange) != len(inRange) {
				t.Fatalf("%v: vector body left some of %d in-range elements to the scalar loop", f, len(inRange))
			}
		}
	})
}

// TestFillSqDistVectorMatchesScalar pins the (2, 3) fill's vector body:
// on both paths, at every length 0–67 and every offset 0–7, fillSqDist
// equals the Go expression term for term and writes nothing past the
// column's end, and an operand shorter than the column panics.
func TestFillSqDistVectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	forEachCovPath(t, func(t *testing.T) {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				ops := make([][]float64, 7)
				for k := range ops {
					ops[k] = covInputs(rng, off+n)[off:]
				}
				c0, c1, e0, e1, o0, o1, o2 := ops[0], ops[1], ops[2], ops[3], ops[4], ops[5], ops[6]
				buf := make([]float64, off+n+8)
				for i := range buf {
					buf[i] = -7
				}
				want := append([]float64(nil), buf...)
				for i := 0; i < n; i++ {
					want[off+i] = ((c0[i] + e0[i]) + e1[i]) + (((c1[i] + o0[i]) + o1[i]) + o2[i])
				}
				fillSqDist(buf[off:off+n:off+n], c0, c1, [][]float64{e0, e1}, [][]float64{o0, o1, o2})
				requireSameBits(t, fmt.Sprintf("n=%d off=%d", n, off), buf, want)
			}
		}
		// An operand one short of the column panics even when its
		// capacity would cover the read.
		col, full, short := make([]float64, 16), make([]float64, 16), make([]float64, 15, 16)
		defer func() {
			if recover() == nil {
				t.Fatal("a short operand did not panic")
			}
		}()
		fillSqDist(col, full, full, [][]float64{full, full}, [][]float64{full, full, short})
	})
}

// archExp's constants (exp_amd64.s).
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

var expTaylor = [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4,
	1.3888888888888888889e-3, 8.3333333333333333333e-3, 4.1666666666666666667e-2,
	1.6666666666666666667e-1, 0.5, 1.0}

// expAMD64 emulates math.Exp's amd64 assembly for x in [−708, 0]: its FMA
// sequence (fma) or its plain one, step for step.
func expAMD64(x float64, fma bool) float64 {
	k := math.RoundToEven(float64(expLog2e * x))
	fused := func(a, b, c float64) float64 {
		if fma {
			return math.FMA(a, b, c)
		}
		return float64(a*b) + c
	}
	r := fused(-k, expLn2U, x)
	r = fused(-k, expLn2L, r)
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = fused(p, r, c)
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	if fma {
		r = math.FMA(r, r+2, 1)
	} else {
		r = float64(r*(r+2)) + 1
	}
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// probeExpArgs returns the exp arguments the family's scalar loop passes
// for the probe column.
func probeExpArgs(f Family) []float64 {
	d2s := covProbe()
	for i, d2 := range d2s {
		switch f {
		case Matern32:
			d2s[i] = -math.Sqrt(3 * d2)
		case Matern52:
			d2s[i] = -math.Sqrt(5 * d2)
		default:
			d2s[i] = -0.5 * d2
		}
	}
	return d2s
}

// TestCovProbeDiscriminatesExp pins the probe column's purpose: for every
// family, some of its exp arguments round differently under math.Exp's
// FMA and non-FMA sequences, so a math.Exp that runs the other sequence
// fails the probe at init. The emulation is checked against this
// process's math.Exp, which runs one of the two throughout. It also pins
// init's verdict: the vector bodies wherever the CPU supports them and
// math.Exp runs the FMA sequence, so a vector body that the probe rejects
// fails here instead of leaving the sweep on the scalar loop unnoticed,
// and the scalar loops when math.Exp runs the plain one.
func TestCovProbeDiscriminatesExp(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the probe guards the amd64 vector bodies")
	}
	supported := covVectorSupported(linalg.DetectCPU())
	expFMA := true
	for _, f := range families {
		args := probeExpArgs(f)
		differ := 0
		matchFMA, matchPlain := true, true
		for _, x := range args {
			fma, plain := expAMD64(x, true), expAMD64(x, false)
			if math.Float64bits(fma) != math.Float64bits(plain) {
				differ++
			}
			e := math.Float64bits(math.Exp(x))
			matchFMA = matchFMA && e == math.Float64bits(fma)
			matchPlain = matchPlain && e == math.Float64bits(plain)
		}
		if differ == 0 {
			t.Errorf("%v: no probe argument tells math.Exp's FMA and plain sequences apart", f)
		}
		if !matchFMA && !matchPlain {
			t.Errorf("%v: math.Exp matches neither emulated sequence on the probe", f)
		}
		expFMA = expFMA && matchFMA
		t.Logf("%v: %d of %d probe arguments differ between the sequences", f, differ, len(args))
	}
	if want := supported && expFMA; covVector != want {
		t.Fatalf("init set covVector %v, want %v (CPU supports the vector bodies: %v, math.Exp runs the FMA sequence: %v)",
			covVector, want, supported, expFMA)
	}
}

// TestCovProbeRejectsNonFMAExp reruns itself with GODEBUG=cpu.fma=off and
// with cpu.avx=off, which switch math.Exp to its plain sequence while the
// CPU still offers AVX2 and FMA. In the rerun the probe must have kept
// the scalar loops, the vector body, where the CPU supports it, must fail
// the probe (without it, it would disagree with math.Exp), math.Exp must
// run the plain sequence, and Family.cov must still equal the scalar loop.
// A build at GOAMD64=v3 or above assumes FMA, so GODEBUG cannot switch it
// off there and math.Exp keeps its FMA sequence; the rerun then skips,
// and so does this test.
func TestCovProbeRejectsNonFMAExp(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the GODEBUG switches change math.Exp on amd64 only")
	}
	if godebug := os.Getenv("GODEBUG"); strings.Contains(godebug, "cpu.fma=off") || strings.Contains(godebug, "cpu.avx=off") {
		if expRunsFMA() {
			t.Skipf("GODEBUG=%s left math.Exp on its FMA sequence (a GOAMD64=v3 or higher build)", godebug)
		}
		if covVector {
			t.Fatalf("GODEBUG=%s: init chose the vector bodies, want the scalar loops", godebug)
		}
		if covVectorSupported(linalg.DetectCPU()) && covProbeMatches() {
			t.Fatalf("GODEBUG=%s: the vector body matches math.Exp, so the probe decides nothing", godebug)
		}
		for _, f := range families {
			for _, x := range probeExpArgs(f) {
				if math.Float64bits(math.Exp(x)) != math.Float64bits(expAMD64(x, false)) {
					t.Fatalf("GODEBUG=%s: math.Exp(%v) does not run the plain sequence", godebug, x)
				}
			}
			d2s := covInputs(rand.New(rand.NewSource(8)), 1000)
			want := append([]float64(nil), d2s...)
			f.covScalar(want)
			f.cov(d2s)
			requireSameBits(t, f.String(), d2s, want)
		}
		return
	}
	for _, setting := range []string{"cpu.fma=off", "cpu.avx=off"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCovProbeRejectsNonFMAExp$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG="+setting)
		out, err := cmd.CombinedOutput()
		if err == nil && strings.Contains(string(out), "--- SKIP: TestCovProbeRejectsNonFMAExp") {
			t.Skipf("GODEBUG=%s rerun skipped:\n%s", setting, out)
		}
		if err != nil || !strings.Contains(string(out), "--- PASS: TestCovProbeRejectsNonFMAExp") {
			t.Fatalf("GODEBUG=%s rerun failed (%v):\n%s", setting, err, out)
		}
	}
}

// expRunsFMA reports whether math.Exp equals the emulated FMA sequence on
// every family's probe arguments.
func expRunsFMA() bool {
	for _, f := range families {
		for _, x := range probeExpArgs(f) {
			if math.Float64bits(math.Exp(x)) != math.Float64bits(expAMD64(x, true)) {
				return false
			}
		}
	}
	return true
}

// BenchmarkFamilyCov times one n = 200 column, the exact engine's window
// in the paper's setting, for each family on the scalar loop and, where
// init chose it, the vector body. A developer tool: speed is judged by
// edgebench.
func BenchmarkFamilyCov(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	src := make([]float64, 200)
	for i := range src {
		src[i] = 8 * rng.Float64()
	}
	col := make([]float64, len(src))
	detected := covVector
	defer func() { covVector = detected }()
	for _, f := range families {
		for _, vector := range covPaths(detected) {
			b.Run(fmt.Sprintf("%v/%s", f, covPathName(vector)), func(b *testing.B) {
				covVector = vector
				for i := 0; i < b.N; i++ {
					copy(col, src)
					f.cov(col)
				}
			})
		}
	}
}
