package gp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// trainedGP builds a GP with n pseudo-random observations (and evictions,
// when maxObs is small enough to trigger them).
func trainedGP(t *testing.T, maxObs, n int) *GP {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := New(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, maxObs)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := g.Add(x, math.Sin(3*x[0])+0.1*rng.NormFloat64()); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	return g
}

func TestSnapshotRestoreBitwise(t *testing.T) {
	cases := []struct {
		name      string
		maxObs, n int
	}{
		{"unbounded", 0, 40},
		{"evicting", 16, 40}, // several sliding-window evictions
		{"empty", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := trainedGP(t, tc.maxObs, tc.n)
			snap := src.Snapshot()

			dst := New(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, tc.maxObs)
			if err := dst.RestoreFrom(snap); err != nil {
				t.Fatalf("RestoreFrom: %v", err)
			}
			if dst.Len() != src.Len() || dst.Evictions() != src.Evictions() {
				t.Fatalf("restored len=%d evictions=%d, want %d/%d", dst.Len(), dst.Evictions(), src.Len(), src.Evictions())
			}
			// Posteriors must agree bitwise at many query points.
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 50; i++ {
				x := []float64{rng.Float64() * 2, rng.Float64() * 2}
				m1, s1 := src.Posterior(x)
				m2, s2 := dst.Posterior(x)
				if m1 != m2 || s1 != s2 {
					t.Fatalf("posterior %d diverged: (%v,%v) vs (%v,%v)", i, m1, s1, m2, s2)
				}
			}
			if l1, l2 := src.LogMarginalLikelihood(), dst.LogMarginalLikelihood(); l1 != l2 {
				t.Fatalf("evidence diverged: %v vs %v", l1, l2)
			}
			// And the restored GP must keep learning identically: the next
			// Append sees the exact same factor.
			x := []float64{0.33, 0.44}
			if err := src.Add(x, 0.5); err != nil {
				t.Fatal(err)
			}
			if err := dst.Add(x, 0.5); err != nil {
				t.Fatal(err)
			}
			m1, s1 := src.Posterior(x)
			m2, s2 := dst.Posterior(x)
			if m1 != m2 || s1 != s2 {
				t.Fatalf("post-restore Add diverged: (%v,%v) vs (%v,%v)", m1, s1, m2, s2)
			}
		})
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	g := trainedGP(t, 0, 8)
	snap := g.Snapshot()
	m0, s0 := g.Posterior([]float64{0.5, 0.5})
	// Mutating the snapshot must not touch the live GP.
	for i := range snap.Xs {
		snap.Xs[i] = math.NaN()
	}
	for i := range snap.Factor {
		snap.Factor[i] = -1
	}
	if m, s := g.Posterior([]float64{0.5, 0.5}); m != m0 || s != s0 {
		t.Fatal("snapshot mutation leaked into the GP")
	}
}

func TestFamilyString(t *testing.T) {
	want := map[Family]string{Matern32: "matern32", Matern52: "matern52", RBF: "rbf"}
	for f, name := range want {
		if got := f.String(); got != name {
			t.Errorf("Family(%d).String() = %q, want %q", int(f), got, name)
		}
	}
}

func TestRestoreFromRejectsMismatches(t *testing.T) {
	src := trainedGP(t, 0, 10)
	base := src.Snapshot()

	mutate := func(f func(*State)) State {
		s := src.Snapshot()
		f(&s)
		return s
	}
	cases := []struct {
		name string
		dst  *GP
		s    State
		want string
	}{
		{"kernel family", New(mustKernel(RBF, []float64{0.8, 1.2}), 1e-2, 0), base, "kernel"},
		{"length scales", New(mustKernel(Matern32, []float64{0.9, 1.2}), 1e-2, 0), base, "length scale"},
		{"noise", New(mustKernel(Matern32, []float64{0.8, 1.2}), 2e-2, 0), base, "noise"},
		{"bound", New(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, 64), base, "observation bound"},
		{"xs length", newLike(), mutate(func(s *State) { s.Xs = s.Xs[:len(s.Xs)-1] }), "input values"},
		{"nan xs", newLike(), mutate(func(s *State) { s.Xs[0] = math.NaN() }), "non-finite"},
		{"inf ys", newLike(), mutate(func(s *State) { s.Ys[0] = math.Inf(1) }), "non-finite"},
		{"factor length", newLike(), mutate(func(s *State) { s.Factor = s.Factor[:3] }), "factor"},
		{"factor diag", newLike(), mutate(func(s *State) { s.Factor[0] = -1 }), "factor"},
		{"over bound", New(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, 4), mutate(func(s *State) { s.MaxObs = 4 }), "over the bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.dst.RestoreFrom(tc.s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			// The failed restore must leave the GP untouched (still empty).
			if tc.dst.Len() != 0 {
				t.Fatalf("failed restore mutated the GP to %d observations", tc.dst.Len())
			}
		})
	}
}

func newLike() *GP {
	return New(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, 0)
}

func TestRestoreEmptyStateClearsGP(t *testing.T) {
	g := trainedGP(t, 0, 5)
	empty := New(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, 0)
	if err := g.RestoreFrom(empty.Snapshot()); err != nil {
		t.Fatalf("RestoreFrom(empty): %v", err)
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d after empty restore", g.Len())
	}
	if m, s := g.Posterior([]float64{0, 0}); m != 0 || s != 1 {
		t.Fatalf("prior posterior = (%v,%v)", m, s)
	}
}
