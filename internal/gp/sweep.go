package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// SweepPlan accelerates the per-period posterior sweep over a fixed
// control grid by exploiting its structure: every candidate in a period
// shares the same context, the grid never changes, and the anisotropic
// squared distance of paper eq. 5 decomposes additively per dimension. The
// plan therefore precomputes, per training point and per control
// dimension, the squared scaled distances to every grid level once at
// observe-time; a period's cross-covariance row then costs one table
// lookup per control dimension plus a per-training-point context scalar,
// instead of re-deriving O(d) distances per (training point, candidate)
// pair.
//
// Distance-table layout: tables[d][l][i] holds
//
//	((x_i[ctxDims+d] − levels[d][l]) · inv[ctxDims+d])²
//
// for basis row i — exactly the per-dimension term of the kernel's
// EvalBatch. The basis is the training set on the exact engine and the
// inducing set on the sparse one. Cached rows are appended when the basis
// grows and rebuilt from scratch when its generation counter moves (a
// sliding-window eviction renumbers the training rows; an inducing-point
// swap replaces a basis row in place); a hyperparameter refit constructs
// a new GP and therefore a new plan.
//
// Bitwise contract: SweepSubset reproduces Posterior at the listed grid
// points bit for bit, for every worker count. The per-dimension terms are
// accumulated in the same two even/odd chains, in the same order, as the
// kernel's scaledSqDistInv — the context dimensions come first, so the
// per-period context partials are valid prefixes of both chains — and the
// fused tiled solve gives every column the operation sequence of
// Posterior's forward solve and dot products.
//
// Concurrency: like the GP read path, SweepSubset must not run
// concurrently with Add or with another sweep on the same plan (it
// refreshes the distance tables); distinct plans over distinct GPs may
// sweep concurrently, and SweepSubset shards its own work internally.
type SweepPlan struct {
	g       *GP
	ctxDims int
	tail    kernelTail
	inv     []float64   // reciprocal length scales, one per feature dim
	levels  [][]float64 // per control dimension, the grid level values
	size    int         // grid cardinality Π len(levels[d])

	// evens/odds partition the control dimensions by feature-dim parity,
	// matching the two accumulation chains of scaledSqDistInv.
	evens, odds []int

	tables   [][][]float64
	rows     int    // basis rows currently tabulated
	basisGen uint64 // GP basis generation the tables were built against

	// c0/c1 are the per-period context partials: the even/odd chain
	// prefixes over the context dimensions, one entry per training row.
	c0, c1 []float64

	met planMetrics
}

// kernelTail identifies the covariance tail κ(d²) applied to the
// tabulated squared distances; the expressions are copied verbatim from
// the corresponding EvalBatch implementations.
type kernelTail int

const (
	tailMatern32 kernelTail = iota
	tailMatern52
	tailRBF
)

// planMetrics holds the plan's pre-registered telemetry handles; the zero
// value (all nil) is the disabled state.
type planMetrics struct {
	builds    *telemetry.Counter
	refreshes *telemetry.Counter
	rows      *telemetry.Gauge
}

// ErrUnsupportedKernel is wrapped by NewSweepPlan when the GP's kernel is
// not one of the package's stationary kernels (Matérn-3/2, Matérn-5/2,
// RBF), whose per-dimension distance terms the plan tabulates.
var ErrUnsupportedKernel = errors.New("gp: kernel not supported by SweepPlan")

// NewSweepPlan builds a sweep plan for g over the grid whose control
// dimensions take the given level values (feature order, after the
// ctxDims context dimensions). The grid is enumerated with the last
// control dimension fastest — the order core.GridSpec.Enumerate uses — and
// candidate features must equal the level values bitwise (core guarantees
// this by deriving both from the same GridSpec).
//
// It returns an error wrapping ErrUnsupportedKernel when the kernel is not
// one of the package's stationary kernels, and a plain error when the
// dimensions are inconsistent.
func NewSweepPlan(g *GP, ctxDims int, levels [][]float64) (*SweepPlan, error) {
	if g == nil {
		return nil, fmt.Errorf("gp: SweepPlan needs a GP")
	}
	var ls []float64
	var tail kernelTail
	switch k := g.kernel.(type) {
	case *Matern32:
		ls, tail = k.LengthScales, tailMatern32
	case *Matern52:
		ls, tail = k.LengthScales, tailMatern52
	case *RBF:
		ls, tail = k.LengthScales, tailRBF
	default:
		return nil, fmt.Errorf("%w: got %T", ErrUnsupportedKernel, g.kernel)
	}
	if ctxDims < 0 {
		return nil, fmt.Errorf("gp: negative context dimension count %d", ctxDims)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("gp: SweepPlan needs at least one control dimension")
	}
	if ctxDims+len(levels) != len(ls) {
		return nil, fmt.Errorf("gp: %d context + %d control dimensions do not match kernel dimension %d",
			ctxDims, len(levels), len(ls))
	}
	size := 1
	for d, lv := range levels {
		if len(lv) == 0 {
			return nil, fmt.Errorf("gp: control dimension %d has no levels", d)
		}
		size *= len(lv)
	}
	p := &SweepPlan{
		g:       g,
		ctxDims: ctxDims,
		tail:    tail,
		inv:     make([]float64, len(ls)),
		levels:  make([][]float64, len(levels)),
		size:    size,
		tables:  make([][][]float64, len(levels)),
	}
	for i, l := range ls {
		//edgebol:allow nanguard -- length scales are validated positive by checkLengthScales at construction
		p.inv[i] = 1 / l
	}
	for d, lv := range levels {
		p.levels[d] = append([]float64(nil), lv...)
		p.tables[d] = make([][]float64, len(lv))
		if (ctxDims+d)%2 == 0 {
			p.evens = append(p.evens, d)
		} else {
			p.odds = append(p.odds, d)
		}
	}
	p.basisGen = g.basisGen()
	p.appendRows(0, g.basisLen())
	p.rows = g.basisLen()
	p.met.builds.Inc()
	return p, nil
}

// Instrument registers the plan's telemetry series on reg, labeled with
// the objective name: table build/refresh counters and the cached-row
// gauge. A nil registry leaves telemetry disabled at zero cost.
func (p *SweepPlan) Instrument(reg *telemetry.Registry, objective string) {
	p.met = planMetrics{
		builds:    reg.Counter("edgebol_gp_sweep_plan_builds_total", "gp", objective),
		refreshes: reg.Counter("edgebol_gp_sweep_plan_refreshes_total", "gp", objective),
		rows:      reg.Gauge("edgebol_gp_sweep_plan_rows", "gp", objective),
	}
	p.met.rows.Set(float64(p.rows))
}

// GridSize returns the grid cardinality the plan sweeps.
func (p *SweepPlan) GridSize() int { return p.size }

// appendRows tabulates basis rows [from, to) into every distance table —
// training rows on the exact engine, inducing rows on the sparse one.
func (p *SweepPlan) appendRows(from, to int) {
	dim := p.g.dim
	bxs := p.g.basisXs()
	for d, lv := range p.levels {
		f := p.ctxDims + d
		invf := p.inv[f]
		for li, level := range lv {
			tab := p.tables[d][li]
			for i := from; i < to; i++ {
				t := (bxs[i*dim+f] - level) * invf
				tab = append(tab, t*t)
			}
			p.tables[d][li] = tab
		}
	}
}

// sync brings the distance tables up to date with the GP's basis: growth
// (new observations, or basis insertions under the sparse engine) appends
// rows; a moved basis generation — an eviction renumbering the training
// rows, or an inducing-point swap replacing a basis row in place —
// rebuilds every table from scratch.
func (p *SweepPlan) sync() {
	n := p.g.basisLen()
	switch {
	case p.g.basisGen() != p.basisGen || n < p.rows:
		for d := range p.tables {
			for li := range p.tables[d] {
				p.tables[d][li] = p.tables[d][li][:0]
			}
		}
		p.appendRows(0, n)
		p.basisGen = p.g.basisGen()
		p.met.builds.Inc()
	case n > p.rows:
		p.appendRows(p.rows, n)
		p.met.refreshes.Inc()
	}
	p.rows = n
	p.met.rows.Set(float64(n))
}

// contextPartials computes the per-period context partials: the even/odd
// accumulation chains of scaledSqDistInv restricted to the context
// dimensions, one entry per basis row, into the plan's reused buffers.
// Because the context dimensions precede the control dimensions, each
// partial is the exact floating-point prefix of its chain.
func (p *SweepPlan) contextPartials(ctx []float64, n int) (c0, c1 []float64) {
	if cap(p.c0) < n {
		p.c0 = make([]float64, n)
		p.c1 = make([]float64, n)
	}
	c0, c1 = p.c0[:n], p.c1[:n]
	dim := p.g.dim
	bxs := p.g.basisXs()
	for i := 0; i < n; i++ {
		row := bxs[i*dim : i*dim+p.ctxDims]
		var s0, s1 float64
		for j, x := range row {
			t := (x - ctx[j]) * p.inv[j]
			if j%2 == 0 {
				s0 += t * t
			} else {
				s1 += t * t
			}
		}
		c0[i], c1[i] = s0, s1
	}
	return c0, c1
}

// SweepSubset evaluates the GP posterior at the grid points whose flat
// indices are listed in idxs (each in [0, GridSize()), enumeration order),
// writing into mu and sigma (each of length len(idxs), parallel to idxs).
// workers is the degree of parallelism: the list is split into contiguous
// tile-aligned shards, one goroutine each with its own scratch; workers <= 0
// scales the count with the work (see ResolveWorkers) and 1 runs serially
// on the calling goroutine. Output j equals Posterior at the features of
// grid index idxs[j] bitwise, for every worker count and any subset
// composition: the per-column math is independent of how columns are tiled
// and sharded. A full sweep passes every index in order; the acquisition's
// budgeted mode passes a few percent of them, and a period costs
// O(len(idxs)).
func (p *SweepPlan) SweepSubset(ctx []float64, idxs []int32, mu, sigma []float64, workers int) {
	if len(ctx) != p.ctxDims {
		panic(fmt.Sprintf("gp: SweepSubset context dimension %d does not match plan's %d", len(ctx), p.ctxDims))
	}
	if len(mu) != len(idxs) || len(sigma) != len(idxs) {
		panic(fmt.Sprintf("gp: SweepSubset output lengths %d, %d do not match %d indices", len(mu), len(sigma), len(idxs)))
	}
	g := p.g
	if g.met.sweep != nil {
		start := time.Now()
		defer func() { g.met.sweep.ObserveDuration(time.Since(start)) }()
	}
	n := g.basisLen()
	if n == 0 {
		prior := math.Sqrt(g.kernel.Prior())
		for i := range mu {
			mu[i] = 0
			sigma[i] = prior
		}
		return
	}
	p.sync()
	c0, c1 := p.contextPartials(ctx, n)
	m := len(idxs)
	workers = ResolveWorkers(n, m, workers)
	if workers <= 1 {
		p.sweepSubsetRange(idxs, 0, m, c0, c1, mu, sigma)
		return
	}
	chunk := (m + workers - 1) / workers
	chunk = (chunk + sweepTile - 1) / sweepTile * sweepTile
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			p.sweepSubsetRange(idxs, lo, hi, c0, c1, mu, sigma)
		}(lo, hi)
	}
	wg.Wait()
}

// sweepSubsetRange evaluates positions [lo, hi) of idxs, writing results
// at the same positions of mu and sigma: per candidate, assemble the
// cross-covariance column from the distance tables and context partials,
// then run tiles of sweepTile columns through the fused solve; a column's
// arithmetic does not depend on its tile, so shard boundaries never change
// results. Sparse engine: the assembled columns are cross-covariances to
// the inducing basis and each tile solves against both m-sized factors,
// the two solves of Posterior's sparse branch.
//
//edgebol:hot
func (p *SweepPlan) sweepSubsetRange(idxs []int32, lo, hi int, c0, c1, mu, sigma []float64) {
	g := p.g
	n := g.basisLen()
	prior := g.kernel.Prior()
	tile := hi - lo
	if tile > sweepTile {
		tile = sweepTile
	}
	buf := make([]float64, tile*n)
	views := make([][]float64, tile)
	for b := range views {
		views[b] = buf[b*n : (b+1)*n]
	}
	var buf2 []float64
	var views2 [][]float64
	if g.sp != nil {
		buf2 = make([]float64, tile*n)
		views2 = make([][]float64, tile)
		for b := range views2 {
			views2[b] = buf2[b*n : (b+1)*n]
		}
	}
	var solver linalg.FusedSolver
	var vsq, vsqNy, muNy [sweepTile]float64
	li := make([]int, len(p.levels))
	rowsE := make([][]float64, len(p.evens))
	rowsO := make([][]float64, len(p.odds))
	for base := lo; base < hi; base += tile {
		m := hi - base
		if m > tile {
			m = tile
		}
		for b := 0; b < m; b++ {
			p.levelIndices(int(idxs[base+b]), li)
			for e, d := range p.evens {
				rowsE[e] = p.tables[d][li[d]][:n]
			}
			for o, d := range p.odds {
				rowsO[o] = p.tables[d][li[d]][:n]
			}
			col := views[b]
			fillSqDist(col, c0, c1, rowsE, rowsO)
			p.applyTail(col)
		}
		if g.sp != nil {
			copy(buf2, buf)
			solver.SolveFused(g.sp.cholSig, views[:m], g.sp.alpha, mu[base:base+m], vsq[:m])
			solver.SolveFused(g.sp.cholKmm, views2[:m], g.sp.zeroAlpha[:n], muNy[:m], vsqNy[:m])
			for b := 0; b < m; b++ {
				v := prior - vsqNy[b] + vsq[b]
				if v < 0 {
					v = 0
				}
				sigma[base+b] = math.Sqrt(v)
			}
			continue
		}
		solver.SolveFused(g.chol, views[:m], g.alpha, mu[base:base+m], vsq[:m])
		for b := 0; b < m; b++ {
			v := prior - vsq[b]
			if v < 0 {
				v = 0
			}
			sigma[base+b] = math.Sqrt(v)
		}
	}
}

// levelIndices decodes a grid index into per-dimension level indices,
// last control dimension fastest (the enumeration order of
// core.GridSpec.Enumerate).
//
//edgebol:hot
func (p *SweepPlan) levelIndices(g int, li []int) {
	for d := len(p.levels) - 1; d >= 0; d-- {
		l := len(p.levels[d])
		li[d] = g % l
		g /= l
	}
}

// fillSqDist assembles the squared scaled distances of one candidate
// column from the selected table rows and the context partials, summing
// each chain in ascending dimension order — the floating-point order of
// scaledSqDistInv.
//
//edgebol:hot
func fillSqDist(col, c0, c1 []float64, rowsE, rowsO [][]float64) {
	if len(rowsE) == 2 && len(rowsO) == 3 {
		// EdgeBOL's layout: 3 context + 5 control dimensions put two
		// control terms on the even chain and three on the odd one.
		e0, e1, o0, o1, o2 := rowsE[0], rowsE[1], rowsO[0], rowsO[1], rowsO[2]
		for i := range col {
			col[i] = ((c0[i] + e0[i]) + e1[i]) + (((c1[i] + o0[i]) + o1[i]) + o2[i])
		}
		return
	}
	if len(rowsE) == 2 && len(rowsO) == 2 {
		// 3 context + 4 control dimensions: two control terms per chain.
		e0, e1, o0, o1 := rowsE[0], rowsE[1], rowsO[0], rowsO[1]
		for i := range col {
			col[i] = ((c0[i] + e0[i]) + e1[i]) + ((c1[i] + o0[i]) + o1[i])
		}
		return
	}
	for i := range col {
		s0, s1 := c0[i], c1[i]
		for _, r := range rowsE {
			s0 += r[i]
		}
		for _, r := range rowsO {
			s1 += r[i]
		}
		col[i] = s0 + s1
	}
}

// applyTail maps squared distances to covariances in place, with
// expressions identical to the kernels' EvalBatch.
//
//edgebol:hot
func (p *SweepPlan) applyTail(col []float64) {
	switch p.tail {
	case tailMatern32:
		for i, d2 := range col {
			//edgebol:allow nanguard -- d2 is a squared distance, non-negative by construction
			d := math.Sqrt(3 * d2)
			col[i] = (1 + d) * math.Exp(-d)
		}
	case tailMatern52:
		for i, d2 := range col {
			s2 := 5 * d2
			//edgebol:allow nanguard -- s2 scales a squared distance, non-negative by construction
			d := math.Sqrt(s2)
			col[i] = (1 + d + s2/3) * math.Exp(-d)
		}
	default:
		for i, d2 := range col {
			col[i] = math.Exp(-0.5 * d2)
		}
	}
}
