package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the runner must agree with.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// small shrinks a workload to a few periods: a short window keeps whole
// eviction cycles, and a small basis keeps the sparse fill short.
func small(w workload) workload {
	switch {
	case w.window > 0:
		w.window, w.episode = 10, 10
		if w.ckptEvery > 0 {
			w.ckptEvery = 5
		}
	default:
		w.inducing, w.episode = 16, 8
	}
	return w
}

func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s not printed", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestWorkloadsTraced(t *testing.T) {
	s := readSpec(t)
	all := workloads()
	if len(all) != len(s.Workload) {
		t.Errorf("%d workloads, BENCHMARK.json lists %d", len(all), len(s.Workload))
	}
	for _, sw := range s.Workload {
		w, ok := all[sw.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", sw.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := run(small(w), runConfig{seed: 3, seconds: 1e-3, traced: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.failures {
				t.Error("check failed:", f)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%d periods attempted, %d failed", res.attempted, res.failed)
			}
			checkNames(t, "trace 0", res.endToEnd(), s.EndToEnd)
			layers := res.perLayer()
			checkNames(t, "trace 1", layers, s.PerLayer)
			if sum := layers["trace.self_sum_pct"].Value; sum < 95 || sum > 105 {
				t.Errorf("per-layer self times add up to %.1f%% of period p50, want within 5%%", sum)
			}
			if len(res.tracer.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func TestChecksFail(t *testing.T) {
	// An episode that stops mid eviction cycle leaves the window smaller
	// than it started, which the GP working-set check must catch.
	w := small(workloads()["paper"])
	w.episode = 7
	res, err := run(w, runConfig{seed: 3, seconds: 1e-3, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) == 0 {
		t.Error("a run ending mid eviction cycle passed its checks")
	}
}

func TestBinomialTail(t *testing.T) {
	for _, c := range []struct {
		n, k int
		p    float64
		want float64
	}{
		{10, 0, 0.1, 1},
		{10, 10, 0.5, 1.0 / 1024},
		{100, 18, 0.1, 0.010007},
		{100, 19, 0.1, 0.0045808},
	} {
		if got := binomialTail(c.n, c.k, c.p); math.Abs(got-c.want) > 1e-3*c.want+1e-12 {
			t.Errorf("P(X >= %d | n=%d, p=%g) = %.5g, want %.5g", c.k, c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "period", Period: 0, Parent: -1, Start: 0, End: 100},
		{Name: "core.step", Period: 0, Parent: 0, Start: 0, End: 90},
		{Name: "env.measure", Period: 0, Parent: 1, Start: 50, End: 80},
		{Name: "testbed.measure", Period: 0, Parent: 2, Start: 55, End: 75},
	}
	got := selfTimes(spans)[0]
	want := map[string]int64{"period": 10, "core.step": 60, "env.measure": 10, "testbed.measure": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}
