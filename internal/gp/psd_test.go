package gp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// Property: every kernel produces positive semi-definite Gram matrices —
// the factorization with jitter must always succeed on random point sets.
func TestKernelGramMatricesPSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(5)
		ls := make([]float64, dim)
		for i := range ls {
			ls[i] = 0.1 + rng.Float64()*2
		}
		n := 2 + rng.Intn(12)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = randVec(rng, dim)
		}
		for _, k := range kernels(ls) {
			gram := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					v := k.Eval(pts[i], pts[j])
					gram.Set(i, j, v)
					gram.Set(j, i, v)
				}
			}
			if _, err := linalg.NewCholesky(gram); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
