package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/testbed"
)

func smallGrid() core.GridSpec {
	return core.GridSpec{Levels: 3, MinResolution: 0.1, MinAirtime: 0.1}
}

func collectSmall(t *testing.T) *Dataset {
	t.Helper()
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Collect(tb, smallGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCollect(t *testing.T) {
	ds := collectSmall(t)
	want := smallGrid().Size() * 2
	if len(ds.Records) != want {
		t.Fatalf("%d records, want %d", len(ds.Records), want)
	}
	for i, r := range ds.Records {
		if err := r.Control().Validate(); err != nil {
			t.Fatalf("record %d invalid control: %v", i, err)
		}
		k := r.KPIs()
		if k.Delay <= 0 || k.ServerPower <= 0 || k.BSPower <= 0 {
			t.Fatalf("record %d degenerate KPIs: %+v", i, k)
		}
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := Collect(nil, smallGrid(), 1); err == nil {
		t.Fatal("expected error for nil env")
	}
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(tb, smallGrid(), 0); err == nil {
		t.Fatal("expected error for zero repetitions")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	ds := collectSmall(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(ds.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(back.Records), len(ds.Records))
	}
	if back.Records[3] != ds.Records[3] {
		t.Fatalf("record corrupted: %+v vs %+v", back.Records[3], ds.Records[3])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	// A record with an invalid control must be rejected.
	if _, err := Read(strings.NewReader(`{"resolution":0,"airtime":1,"gpuSpeed":1,"mcs":1}`)); err == nil {
		t.Fatal("expected error for invalid control")
	}
}

func TestReplayEnvironmentServesRecordedControls(t *testing.T) {
	ds := collectSmall(t)
	env, err := NewReplayEnvironment(ds, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Measuring a recorded control returns one of its recorded KPI sets.
	x := ds.Records[0].Control()
	k, err := env.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ds.Records {
		if r.Control() == x && r.KPIs() == k {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("replayed KPIs do not match any recorded sample for the control")
	}
}

// TestSplitGridRoundTripAndReplay: on a grid with two split levels,
// every record keeps its split layer through Write and Read, a split-0
// record serializes without the field, and replaying a split-1 control
// serves only split-1 measurements.
func TestSplitGridRoundTripAndReplay(t *testing.T) {
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid := core.GridSpec{Levels: 2, MinResolution: 0.5, MinAirtime: 0.5}
	grid.LevelsPerDim[4] = 2
	ctls, err := grid.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Collect(tb, grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if first := strings.SplitN(buf.String(), "\n", 2)[0]; ctls[0].SplitLayer != 0 || strings.Contains(first, "splitLayer") {
		t.Fatalf("split-0 record %s carries the split field", first)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var split1 core.Control
	for i, r := range back.Records {
		if want := ctls[i%len(ctls)]; r.Control() != want {
			t.Fatalf("record %d reads back as %+v, collected at %+v", i, r.Control(), want)
		}
		if x := r.Control(); x.SplitLayer == 1 {
			split1 = x
		}
	}
	if split1.SplitLayer != 1 {
		t.Fatal("no split-1 record collected")
	}
	env, err := NewReplayEnvironment(back, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k, err := env.Measure(split1)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range back.Records {
			found = found || (r.Control() == split1 && r.KPIs() == k)
		}
		if !found {
			t.Fatalf("replay %d at %+v served %+v, which no split-1 record holds", i, split1, k)
		}
	}
}

func TestReplayEnvironmentNearestNeighbour(t *testing.T) {
	ds := collectSmall(t)
	env, err := NewReplayEnvironment(ds, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// An off-grid control gets the nearest recorded neighbour: it must
	// still return valid KPIs.
	k, err := env.Measure(core.Control{Resolution: 0.47, Airtime: 0.93, GPUSpeed: 0.61, MCS: 0.48})
	if err != nil {
		t.Fatal(err)
	}
	if k.Delay <= 0 {
		t.Fatalf("degenerate replayed KPIs: %+v", k)
	}
}

func TestReplayEnvironmentValidation(t *testing.T) {
	if _, err := NewReplayEnvironment(nil, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error for nil dataset")
	}
	ds := collectSmall(t)
	if _, err := NewReplayEnvironment(ds, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

// An EdgeBOL agent must be able to learn offline from the recorded
// campaign — the reproducibility purpose of the published dataset.
func TestAgentLearnsFromReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("offline learning skipped in -short mode")
	}
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	grid := core.GridSpec{Levels: 4, MinResolution: 0.1, MinAirtime: 0.1}
	ds, err := Collect(tb, grid, 3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewReplayEnvironment(ds, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	w := core.CostWeights{Delta1: 1, Delta2: 1}
	agent, err := core.NewAgent(core.Options{
		Grid:        grid,
		Weights:     w,
		Constraints: core.Constraints{MaxDelay: 0.4, MinMAP: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var first, lastAvg float64
	var tail []float64
	for i := 0; i < 60; i++ {
		_, k, _, err := agent.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = w.Cost(k)
		}
		if i >= 45 {
			tail = append(tail, w.Cost(k))
		}
	}
	for _, c := range tail {
		lastAvg += c / float64(len(tail))
	}
	if lastAvg >= first {
		t.Fatalf("offline learning did not improve: first %v tail %v", first, lastAvg)
	}
}
