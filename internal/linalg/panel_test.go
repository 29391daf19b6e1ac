package linalg

import (
	"math/rand"
	"testing"
)

// randSPDChol builds the Cholesky factor of a random well-conditioned SPD
// matrix: small random off-diagonals with a dominant diagonal.
func randSPDChol(t testing.TB, n int, seed int64) *Cholesky {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := rng.NormFloat64() * 0.05
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
		m.Set(i, i, 1.5+rng.Float64())
	}
	c, err := NewCholesky(m)
	if err != nil {
		t.Fatalf("NewCholesky(n=%d): %v", n, err)
	}
	return c
}

// fusedReference computes SolveFused's outputs one column at a time with
// the forwardSolve1 scalar reference, without touching cols.
func fusedReference(c *Cholesky, cols [][]float64, alpha []float64) (mu, vsq []float64) {
	mu = make([]float64, len(cols))
	vsq = make([]float64, len(cols))
	for j, y := range cols {
		x := append([]float64(nil), y...)
		mu[j] = Dot(x, alpha)
		c.forwardSolve1(x)
		vsq[j] = Dot(x, x)
	}
	return mu, vsq
}

// checkFused runs SolveFused on fresh copies of cols and requires bitwise
// agreement with the forwardSolve1 reference.
func checkFused(t *testing.T, c *Cholesky, cols [][]float64, alpha []float64) {
	t.Helper()
	refMu, refVsq := fusedReference(c, cols, alpha)
	work := make([][]float64, len(cols))
	for j := range cols {
		work[j] = append([]float64(nil), cols[j]...)
	}
	mu := make([]float64, len(cols))
	vsq := make([]float64, len(cols))
	var s FusedSolver
	s.SolveFused(c, work, alpha, mu, vsq)
	for j := range cols {
		if mu[j] != refMu[j] { //edgebol:allow floateq -- bitwise-identity contract of the fused solver
			t.Fatalf("n=%d width=%d col %d: mu %x, reference %x", c.Size(), len(cols), j, mu[j], refMu[j])
		}
		if vsq[j] != refVsq[j] { //edgebol:allow floateq -- bitwise-identity contract of the fused solver
			t.Fatalf("n=%d width=%d col %d: vsq %x, reference %x", c.Size(), len(cols), j, vsq[j], refVsq[j])
		}
	}
}

// forEachPanelKernel runs fn once for every vector-kernel level the host
// supports, plus the scalar fallback, restoring the detected level after.
func forEachPanelKernel(t *testing.T, fn func(t *testing.T, level string)) {
	detected := panelKernel
	defer func() { panelKernel = detected }()
	panelKernel = panelKernelNone
	fn(t, "scalar")
	for _, level := range []int{panelKernelAVX2, panelKernelAVX512} {
		if level > detected {
			continue
		}
		panelKernel = level
		switch level {
		case panelKernelAVX2:
			fn(t, "avx2")
		case panelKernelAVX512:
			fn(t, "avx512")
		}
	}
}

// TestSolveFusedMatchesScalar is the tiled-solve property test: on random
// SPD systems of assorted sizes — n=1 included — and panel widths that are
// not multiples of the tile, every supported kernel level must reproduce
// the forwardSolve1 reference bit for bit.
func TestSolveFusedMatchesScalar(t *testing.T) {
	forEachPanelKernel(t, func(t *testing.T, level string) {
		for _, n := range []int{1, 2, 3, 7, 31, 32, 33, 100, 257} {
			c := randSPDChol(t, n, int64(n))
			rng := rand.New(rand.NewSource(int64(n) * 31))
			alpha := make([]float64, n)
			for i := range alpha {
				alpha[i] = rng.NormFloat64()
			}
			for _, w := range []int{0, 1, 4, 31, 32, 33, 63, 64, 65, 97} {
				cols := make([][]float64, w)
				for j := range cols {
					col := make([]float64, n)
					for i := range col {
						col[i] = rng.NormFloat64()
					}
					cols[j] = col
				}
				checkFused(t, c, cols, alpha)
			}
		}
		_ = level
	})
}

// TestSolveFusedKernelLevelsAgree pins the vector kernels against each
// other directly: the same panel solved at every supported level must give
// one bitwise answer, so results cannot depend on the host CPU.
func TestSolveFusedKernelLevelsAgree(t *testing.T) {
	const n, w = 129, 64
	c := randSPDChol(t, n, 9)
	rng := rand.New(rand.NewSource(10))
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = rng.NormFloat64()
	}
	cols := make([][]float64, w)
	for j := range cols {
		col := make([]float64, n)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		cols[j] = col
	}
	type result struct {
		level   string
		mu, vsq []float64
	}
	var results []result
	forEachPanelKernel(t, func(t *testing.T, level string) {
		work := make([][]float64, w)
		for j := range cols {
			work[j] = append([]float64(nil), cols[j]...)
		}
		mu := make([]float64, w)
		vsq := make([]float64, w)
		var s FusedSolver
		s.SolveFused(c, work, alpha, mu, vsq)
		results = append(results, result{level, mu, vsq})
	})
	base := results[0]
	for _, r := range results[1:] {
		for j := range base.mu {
			if r.mu[j] != base.mu[j] || r.vsq[j] != base.vsq[j] { //edgebol:allow floateq -- bitwise identity across kernel levels
				t.Fatalf("col %d: %s (%x,%x) differs from %s (%x,%x)",
					j, r.level, r.mu[j], r.vsq[j], base.level, base.mu[j], base.vsq[j])
			}
		}
	}
}

// TestSolveFusedValidation covers the panics on mis-sized arguments.
func TestSolveFusedValidation(t *testing.T) {
	c := randSPDChol(t, 4, 1)
	alpha := make([]float64, 4)
	cols := [][]float64{make([]float64, 4)}
	cases := []struct {
		name string
		call func()
	}{
		{"short output", func() {
			var s FusedSolver
			s.SolveFused(c, cols, alpha, nil, make([]float64, 1))
		}},
		{"short alpha", func() {
			var s FusedSolver
			s.SolveFused(c, cols, alpha[:2], make([]float64, 1), make([]float64, 1))
		}},
		{"short column", func() {
			var s FusedSolver
			s.SolveFused(c, [][]float64{make([]float64, 3)}, alpha, make([]float64, 1), make([]float64, 1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.call()
		})
	}
}

// FuzzSolveFused drives random system sizes, widths, and contents through
// every kernel level against the scalar reference.
func FuzzSolveFused(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1))
	f.Add(int64(2), uint8(32), uint8(40))
	f.Add(int64(3), uint8(48), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, wRaw uint8) {
		n := int(nRaw)%64 + 1
		w := int(wRaw) % 80
		c := randSPDChol(t, n, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		alpha := make([]float64, n)
		for i := range alpha {
			alpha[i] = rng.NormFloat64()
		}
		cols := make([][]float64, w)
		for j := range cols {
			col := make([]float64, n)
			for i := range col {
				col[i] = rng.NormFloat64() * 3
			}
			cols[j] = col
		}
		forEachPanelKernel(t, func(t *testing.T, level string) {
			checkFused(t, c, cols, alpha)
			_ = level
		})
	})
}
