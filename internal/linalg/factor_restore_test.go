package linalg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// appendedCholesky builds a factor the way the GP does: a 1×1 seed grown
// by incremental Appends, so its entries carry the append-path arithmetic
// a batch refactorization would not reproduce bitwise.
func appendedCholesky(t *testing.T, n int) *Cholesky {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	c, err := NewCholesky(NewMatrixFrom(1, 1, []float64{2}))
	if err != nil {
		t.Fatal(err)
	}
	for c.Size() < n {
		b := make([]float64, c.Size())
		for i := range b {
			b[i] = 0.3 * rng.Float64()
		}
		if err := c.Append(b, 2+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestFactorRoundTrip(t *testing.T) {
	src := appendedCholesky(t, 12)
	got, err := NewCholeskyFromFactor(src.Size(), src.FactorData(), src.Jitter())
	if err != nil {
		t.Fatalf("NewCholeskyFromFactor: %v", err)
	}
	if got.Size() != src.Size() || got.Jitter() != src.Jitter() {
		t.Fatalf("size/jitter %d/%v, want %d/%v", got.Size(), got.Jitter(), src.Size(), src.Jitter())
	}
	for i := 0; i < src.Size(); i++ {
		for j := 0; j <= i; j++ {
			if got.LAt(i, j) != src.LAt(i, j) {
				t.Fatalf("factor entry (%d,%d) %v != %v", i, j, got.LAt(i, j), src.LAt(i, j))
			}
		}
	}
	// Solves through the restored factor must agree bitwise.
	y1 := make([]float64, src.Size())
	y2 := make([]float64, src.Size())
	for i := range y1 {
		y1[i] = float64(i) - 3.5
		y2[i] = y1[i]
	}
	src.SolveVec(y1)
	got.SolveVec(y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("solve diverged at %d: %v != %v", i, y1[i], y2[i])
		}
	}
	if src.LogDet() != got.LogDet() {
		t.Fatalf("LogDet %v != %v", src.LogDet(), got.LogDet())
	}
}

func TestFactorDataIsACopy(t *testing.T) {
	c := appendedCholesky(t, 4)
	d := c.FactorData()
	want := c.LAt(0, 0)
	d[0] = -99
	if c.LAt(0, 0) != want {
		t.Fatal("FactorData aliases the live factor")
	}
}

// TestSameFactor pins the bit compare: a restored copy matches, a copy
// one ulp off in its last entry or of another size does not, and the
// compare allocates nothing.
func TestSameFactor(t *testing.T) {
	c := appendedCholesky(t, 12)
	l := c.FactorData()
	twin, err := NewCholeskyFromFactor(c.Size(), l, c.Jitter())
	if err != nil {
		t.Fatal(err)
	}
	l[len(l)-1] = math.Nextafter(l[len(l)-1], math.Inf(1))
	off, err := NewCholeskyFromFactor(c.Size(), l, c.Jitter())
	if err != nil {
		t.Fatal(err)
	}
	if !c.SameFactor(c) || !c.SameFactor(twin) || c.SameFactor(off) || c.SameFactor(appendedCholesky(t, 11)) {
		t.Fatal("SameFactor disagrees with the factors' bits")
	}
	if n := testing.AllocsPerRun(10, func() { c.SameFactor(twin) }); n != 0 {
		t.Fatalf("SameFactor allocates %v times per call", n)
	}
}

func TestNewCholeskyFromFactorValidation(t *testing.T) {
	good := appendedCholesky(t, 3)
	l := good.FactorData()
	cases := []struct {
		name   string
		n      int
		l      []float64
		jitter float64
		want   string
	}{
		{"negative size", -1, nil, 0, "negative"},
		{"length mismatch", 3, l[:5], 0, "length"},
		{"negative jitter", 3, l, -1, "jitter"},
		{"nan entry", 3, append([]float64{}, l[0], math.NaN(), l[2], l[3], l[4], l[5]), 0, "non-finite"},
		{"zero diagonal", 3, append([]float64{0}, l[1:]...), 0, "diagonal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCholeskyFromFactor(tc.n, tc.l, tc.jitter); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
