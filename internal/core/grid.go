package core

import (
	"fmt"
	"math"
)

// Dimension indices of the control grid, in feature (and Enumerate
// nesting) order.
const (
	dimResolution = iota
	dimAirtime
	dimGPUSpeed
	dimMCS
	dimSplit
)

// GridSpec defines the discrete control space X = H × A × Γ × M (× S) of
// §6.1. The prototype used 11 levels per dimension (|X| = 11⁴ = 14 641);
// smaller grids trade optimality for per-period compute and are used by the
// reduced benchmark settings, while LevelsPerDim grows the space far past
// the paper's — up to the 31⁴×8 ≈ 7.4M-candidate demonstration grid the
// adaptive acquisition engine sweeps.
type GridSpec struct {
	// Levels is the number of evenly spaced levels per dimension.
	Levels int
	// MinResolution and MinAirtime are the lowest levels of the (0,1]
	// dimensions (zero would disable the service entirely).
	MinResolution, MinAirtime float64
	// LevelsPerDim optionally overrides the level count per dimension, in
	// order (resolution, airtime, GPU speed, MCS, split layer). A zero
	// entry resolves to Levels for the paper's four dimensions and to 1
	// for the split dimension — one level pins SplitLayer at 0 (all-edge
	// inference), which reproduces the original 4-D control space exactly.
	// The struct stays comparable (fixed-size array), which the checkpoint
	// fixed-config comparison relies on.
	LevelsPerDim [ControlDims]int
}

// DefaultGridSpec matches the paper's 11-level grid.
func DefaultGridSpec() GridSpec {
	return GridSpec{Levels: 11, MinResolution: 0.1, MinAirtime: 0.1}
}

// dimLevels returns the resolved level count of dimension d (zero entries
// of LevelsPerDim default to Levels, except the split dimension's 1).
func (g GridSpec) dimLevels(d int) int {
	if n := g.LevelsPerDim[d]; n > 0 {
		return n
	}
	if d == dimSplit {
		return 1
	}
	return g.Levels
}

// dimLow returns the lowest level value of dimension d; every dimension
// spans [dimLow, 1] except single-level dimensions, pinned at dimLow.
func (g GridSpec) dimLow(d int) float64 {
	switch d {
	case dimResolution:
		return g.MinResolution
	case dimAirtime:
		return g.MinAirtime
	}
	return 0
}

// Validate reports whether the spec is usable. The acquisition engine
// and gp.SweepSubset hold grid indices as int32, so a grid may have at
// most math.MaxInt32 controls.
func (g GridSpec) Validate() error {
	if g.Levels < 2 {
		return fmt.Errorf("core: grid needs at least 2 levels, got %d", g.Levels)
	}
	if g.MinResolution <= 0 || g.MinResolution >= 1 {
		return fmt.Errorf("core: MinResolution %v outside (0,1)", g.MinResolution)
	}
	if g.MinAirtime <= 0 || g.MinAirtime >= 1 {
		return fmt.Errorf("core: MinAirtime %v outside (0,1)", g.MinAirtime)
	}
	for d, n := range g.LevelsPerDim {
		if n < 0 {
			return fmt.Errorf("core: LevelsPerDim[%d] = %d is negative", d, n)
		}
	}
	size := 1
	for d := 0; d < ControlDims; d++ {
		n := g.dimLevels(d)
		if size > math.MaxInt32/n {
			return fmt.Errorf("core: grid has more than %d controls", math.MaxInt32)
		}
		size *= n
	}
	return nil
}

// Size returns |X|, the product of the per-dimension level counts
// (Levels⁴ for a legacy 4-D spec).
func (g GridSpec) Size() int {
	size := 1
	for d := 0; d < ControlDims; d++ {
		size *= g.dimLevels(d)
	}
	return size
}

// levelsIn returns n evenly spaced values spanning [lo, hi], with both
// endpoints exact so grid membership checks are reliable. A single-level
// dimension collapses to its low endpoint.
func levelsIn(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	out[0], out[n-1] = lo, hi
	return out
}

// levelIndexN returns the index of the grid level nearest to v on an
// n-level dimension spanning [lo, 1], clamped into [0, n−1].
func levelIndexN(v, lo float64, n int) int {
	if n <= 1 {
		return 0
	}
	step := (1 - lo) / float64(n-1)
	k := int(math.Round((v - lo) / step))
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// levelValueN returns level i of an n-level dimension spanning [lo, 1],
// with arithmetic identical to levelsIn so snapped controls match the
// entries produced by Enumerate bitwise.
func levelValueN(i int, lo float64, n int) float64 {
	if n <= 1 || i == 0 {
		return lo
	}
	if i == n-1 {
		return 1
	}
	return lo + (1-lo)*float64(i)/float64(n-1)
}

// controlDimValues returns the control's components in dimension order.
func controlDimValues(x Control) [ControlDims]float64 {
	return [ControlDims]float64{x.Resolution, x.Airtime, x.GPUSpeed, x.MCS, x.SplitLayer}
}

// controlFromDims builds a Control from per-dimension values.
func controlFromDims(v [ControlDims]float64) Control {
	return Control{Resolution: v[dimResolution], Airtime: v[dimAirtime],
		GPUSpeed: v[dimGPUSpeed], MCS: v[dimMCS], SplitLayer: v[dimSplit]}
}

// Index returns the position within Enumerate's output of the grid point
// nearest to x, by inverting Enumerate's resolution → airtime → GPU →
// MCS → split nesting in O(1). Arbitrary (off-grid, even out-of-range)
// controls are snapped per dimension exactly like Nearest.
func (g GridSpec) Index(x Control) int {
	vals := controlDimValues(x)
	ix := 0
	for d := 0; d < ControlDims; d++ {
		n := g.dimLevels(d)
		ix = ix*n + levelIndexN(vals[d], g.dimLow(d), n)
	}
	return ix
}

// At returns the grid control at flat index i (Enumerate's ordering, the
// last dimension fastest) without materializing the grid. The result is
// bitwise equal to Enumerate()[i].
func (g GridSpec) At(i int) Control {
	var v [ControlDims]float64
	for d := ControlDims - 1; d >= 0; d-- {
		n := g.dimLevels(d)
		v[d] = levelValueN(i%n, g.dimLow(d), n)
		i /= n
	}
	return controlFromDims(v)
}

// Enumerate returns every control in the grid, in a deterministic order.
func (g GridSpec) Enumerate() ([]Control, error) {
	levels, err := g.LevelValues()
	if err != nil {
		return nil, err
	}
	out := make([]Control, 0, g.Size())
	for _, r := range levels[dimResolution] {
		for _, a := range levels[dimAirtime] {
			for _, s := range levels[dimGPUSpeed] {
				for _, m := range levels[dimMCS] {
					for _, p := range levels[dimSplit] {
						out = append(out, Control{Resolution: r, Airtime: a, GPUSpeed: s, MCS: m, SplitLayer: p})
					}
				}
			}
		}
	}
	return out, nil
}

// LevelValues returns the per-dimension grid level values in feature
// order (resolution, airtime, GPU speed, MCS, split layer). The values are
// computed by the same arithmetic as Enumerate, so they equal the control
// features of the enumerated grid bitwise — the property the gp.SweepPlan
// distance tables depend on.
func (g GridSpec) LevelValues() ([][]float64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := make([][]float64, ControlDims)
	for d := range out {
		out[d] = levelsIn(g.dimLow(d), 1, g.dimLevels(d))
	}
	return out, nil
}

// MaxControl returns the most resource-rich control in the grid: full
// resolution, airtime, GPU speed, and MCS, with the whole DNN on the edge
// (split 0 — the edge GPU at full speed is the fast path). This is the
// canonical member of the initial safe set S₀ — the paper seeds S₀ with
// the lowest-delay, highest-mAP (and highest-power) configurations.
func (g GridSpec) MaxControl() Control {
	return Control{Resolution: 1, Airtime: 1, GPUSpeed: 1, MCS: 1}
}

// Nearest returns the grid control closest (in normalized L∞ distance) to
// an arbitrary control, used to project continuous baseline actions (e.g.
// DDPG outputs) onto the discrete action space. The result is bitwise
// equal to the corresponding Enumerate entry (the one at Index(x)).
func (g GridSpec) Nearest(x Control) Control {
	vals := controlDimValues(x)
	var out [ControlDims]float64
	for d := 0; d < ControlDims; d++ {
		n := g.dimLevels(d)
		lo := g.dimLow(d)
		out[d] = levelValueN(levelIndexN(vals[d], lo, n), lo, n)
	}
	return controlFromDims(out)
}
