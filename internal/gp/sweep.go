package gp

import (
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
// for basis row i, with inv the kernel's reciprocal length scales —
// exactly the per-dimension term of the kernel's EvalBatch. The basis is
// the training set on the exact engine and the inducing set on the sparse
// one. Cached rows are appended when the basis grows and rebuilt from
// scratch when its generation counter moves (a sliding-window eviction
// renumbers the training rows; an inducing-point swap replaces a basis
// row in place); a hyperparameter refit constructs a new GP and therefore
// a new plan.
//
// Bitwise contract: SweepSubset reproduces Posterior at the listed grid
// points bit for bit, for every worker count. The per-dimension terms are
// rounded squares accumulated in the same two even/odd chains, in the same
// order, as the kernel's scaledSqDistInv — the context dimensions come
// first, so the per-period context partials are valid prefixes of both
// chains — the squared distances go through the same Family.cov as
// EvalBatch, and the fused tiled solve gives every column the operation
// sequence of Posterior's forward solve and dot products.
//
// Concurrency: like the GP read path, SweepSubset must not run
// concurrently with Add or with another sweep over the same plans (it
// refreshes the distance tables); sweeps over disjoint plans may run
// concurrently, and SweepSubset shards its own work internally.
type SweepPlan struct {
	g       *GP
	ctxDims int
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

	// columns counts the kernel columns built from the plan's tables;
	// nil (uninstrumented) is a no-op.
	columns *telemetry.Counter
}

// NewSweepPlan builds a sweep plan for g over the grid whose control
// dimensions take the given level values (feature order, after the
// ctxDims context dimensions). The grid is enumerated with the last
// control dimension fastest — the order core.GridSpec.Enumerate uses — and
// candidate features must equal the level values bitwise (core guarantees
// this by deriving both from the same GridSpec). It returns an error when
// the dimensions are inconsistent.
func NewSweepPlan(g *GP, ctxDims int, levels [][]float64) (*SweepPlan, error) {
	if g == nil {
		return nil, fmt.Errorf("gp: SweepPlan needs a GP")
	}
	if ctxDims < 0 {
		return nil, fmt.Errorf("gp: negative context dimension count %d", ctxDims)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("gp: SweepPlan needs at least one control dimension")
	}
	if ctxDims+len(levels) != g.dim {
		return nil, fmt.Errorf("gp: %d context + %d control dimensions do not match kernel dimension %d",
			ctxDims, len(levels), g.dim)
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
		levels:  make([][]float64, len(levels)),
		size:    size,
		tables:  make([][][]float64, len(levels)),
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
	return p, nil
}

// Instrument registers the plan's telemetry series on reg, labeled with
// the objective name: the count of kernel columns built from the plan's
// tables while it leads a column group (see SweepSubset). A nil registry
// leaves telemetry disabled at zero cost.
func (p *SweepPlan) Instrument(reg *telemetry.Registry, objective string) {
	p.columns = reg.Counter("edgebol_gp_sweep_columns_total", "gp", objective)
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
		invf := p.g.kernel.inv[f]
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
	case n > p.rows:
		p.appendRows(p.rows, n)
	}
	p.rows = n
}

// contextPartials computes the per-period context partials: the even/odd
// accumulation chains of scaledSqDistInv restricted to the context
// dimensions, one entry per basis row, into the plan's reused buffers.
// Because the context dimensions precede the control dimensions, each
// partial is the exact floating-point prefix of its chain. Each square is
// rounded before it is added, as in scaledSqDistInv and the tables: the
// explicit conversion forbids the compiler to fuse the multiply-add.
func (p *SweepPlan) contextPartials(ctx []float64, n int) (c0, c1 []float64) {
	if cap(p.c0) < n {
		p.c0 = make([]float64, n)
		p.c1 = make([]float64, n)
	}
	c0, c1 = p.c0[:n], p.c1[:n]
	dim := p.g.dim
	bxs := p.g.basisXs()
	inv := p.g.kernel.inv
	for i := 0; i < n; i++ {
		row := bxs[i*dim : i*dim+p.ctxDims]
		var s0, s1 float64
		for j, x := range row {
			t := (x - ctx[j]) * inv[j]
			if j%2 == 0 {
				s0 += float64(t * t)
			} else {
				s1 += float64(t * t)
			}
		}
		c0[i], c1[i] = s0, s1
	}
	return c0, c1
}

// Screen is SweepSubset's optional mean-only pre-test. A posterior mean
// costs one dot product with a candidate's kernel column, a variance one
// triangular solve per factor; and once a learner has data, the means alone
// often settle a candidate: a bound test μ + β·σ ≤ b cannot pass where μ
// alone fails it, since σ ≥ 0. With a screen, the sweep computes the Means
// plans' means for every candidate and spends the solves only on those Keep
// accepts.
type Screen struct {
	// Means lists the plans, by position in SweepSubset's plans argument,
	// whose posterior means Keep reads, in the order it receives them.
	Means []int
	// Keep reports whether the candidate at position j of the index list
	// gets its full posterior, given the Means plans' means there. The
	// sweep calls it once per candidate, concurrently from its workers for
	// distinct j.
	Keep func(j int, means []float64) bool
}

// SweepSubset evaluates the posterior of every plan's GP at the grid
// points whose flat indices are listed in idxs (each in [0, GridSize()),
// enumeration order): plan i writes mu[i] and sigma[i], each of length
// len(idxs) and parallel to idxs. The plans must sweep one grid (equal
// context dimension and level values).
//
// Plans whose GPs share the kernel family, the length scales, the engine
// and the basis rows form a column group. The sweep builds each
// candidate's cross-covariance column once per group, from the first
// member's distance tables, and runs every member's own fused solves on
// it. Groups are recomputed on every call, so GPs that receive the same
// inputs in lockstep share their columns with no further bookkeeping, and
// a plan that matches no other forms a group of one.
//
// With a nil screen every output is written. With a screen, the Means
// plans' mu is written at every position and the remaining outputs only at
// the positions Keep accepted; the others keep what they held. SweepSubset
// returns the number of accepted positions (len(idxs) without a screen).
// Every written output equals Posterior at the features of grid index
// idxs[j] bitwise, for every worker count, screen and subset composition:
// a screened mean is Posterior's linalg.Dot over the same column, and a
// column's arithmetic never depends on its tile or shard.
//
// workers is the degree of parallelism: the list is split into contiguous
// tile-aligned shards, one goroutine each with its own scratch; workers <=
// 0 scales the count with the work, len(plans) basis rows per candidate
// (see resolveWorkers), and 1 runs serially on the calling goroutine. The
// call's duration is observed once, on the first plan's GP's
// edgebol_gp_sweep_seconds series.
func SweepSubset(plans []*SweepPlan, ctx []float64, idxs []int32, screen *Screen, mu, sigma [][]float64, workers int) int {
	if len(plans) == 0 {
		panic("gp: SweepSubset needs at least one plan")
	}
	if len(mu) != len(plans) || len(sigma) != len(plans) {
		panic(fmt.Sprintf("gp: SweepSubset has %d, %d outputs for %d plans", len(mu), len(sigma), len(plans)))
	}
	p0 := plans[0]
	for i, p := range plans {
		if len(ctx) != p.ctxDims {
			panic(fmt.Sprintf("gp: SweepSubset context dimension %d does not match plan's %d", len(ctx), p.ctxDims))
		}
		if !sameGrid(p, p0) {
			panic("gp: SweepSubset plans sweep different grids")
		}
		if len(mu[i]) != len(idxs) || len(sigma[i]) != len(idxs) {
			panic(fmt.Sprintf("gp: SweepSubset output lengths %d, %d do not match %d indices", len(mu[i]), len(sigma[i]), len(idxs)))
		}
	}
	if h := p0.g.met.sweep; h != nil {
		start := time.Now()
		defer func() { h.ObserveDuration(time.Since(start)) }()
	}
	s := newSweep(plans, ctx, idxs, screen, mu, sigma)
	m := len(idxs)
	kept := 0
	workers = resolveWorkers(len(plans)*p0.g.basisLen(), m, workers)
	if workers <= 1 {
		kept = s.shard(0, m)
	} else {
		chunk := (m + workers - 1) / workers
		chunk = (chunk + sweepTile - 1) / sweepTile * sweepTile
		counts := make([]int, workers)
		var wg sync.WaitGroup
		for w, lo := 0, 0; lo < m; w, lo = w+1, lo+chunk {
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				counts[w] = s.shard(lo, hi)
			}(w, lo, min(lo+chunk, m))
		}
		wg.Wait()
		for _, c := range counts {
			kept += c
		}
	}
	for _, gr := range s.groups {
		built := kept
		if gr.screened {
			built = m
		}
		gr.lead.columns.Add(uint64(built))
	}
	return kept
}

// sweep is one SweepSubset call's state, read-only once built.
type sweep struct {
	plans     []*SweepPlan
	groups    []sweepGroup
	group     []int // plan position → its column group
	idxs      []int32
	screen    *Screen
	mu, sigma [][]float64
}

// sweepGroup is a column group: plans whose GPs produce bitwise-equal
// cross-covariance columns.
type sweepGroup struct {
	lead     *SweepPlan // the first member; its tables build the columns
	members  []int      // plan positions, ascending
	screened bool       // a member's mean feeds the screen
	n        int        // basis rows
	c0, c1   []float64  // the lead's context partials
}

// newSweep partitions the plans into column groups and brings each
// group's lead up to date: table rows and context partials. Only leads
// are synced; a plan that only follows keeps its tables as they are until
// it leads, when sync catches up with its GP.
func newSweep(plans []*SweepPlan, ctx []float64, idxs []int32, screen *Screen, mu, sigma [][]float64) *sweep {
	s := &sweep{plans: plans, group: make([]int, len(plans)), idxs: idxs, screen: screen, mu: mu, sigma: sigma}
	for i, p := range plans {
		k := 0
		for k < len(s.groups) && !sharesColumns(s.groups[k].lead, p) {
			k++
		}
		if k == len(s.groups) {
			s.groups = append(s.groups, sweepGroup{lead: p})
		}
		s.groups[k].members = append(s.groups[k].members, i)
		s.group[i] = k
	}
	if screen != nil {
		for _, i := range screen.Means {
			s.groups[s.group[i]].screened = true
		}
	}
	for k := range s.groups {
		gr := &s.groups[k]
		gr.n = gr.lead.g.basisLen()
		gr.lead.sync()
		gr.c0, gr.c1 = gr.lead.contextPartials(ctx, gr.n)
	}
	return s
}

// sharesColumns reports whether two plans' GPs produce bitwise-equal
// cross-covariance columns on their common grid: the same kernel family,
// length scales, engine and basis rows. It costs O(n·d) compares, noise
// next to the sweep that follows.
func sharesColumns(a, b *SweepPlan) bool {
	ga, gb := a.g, b.g
	n := ga.basisLen()
	return ga.kernel.family == gb.kernel.family && (ga.sp == nil) == (gb.sp == nil) &&
		gb.basisLen() == n && sameBits(ga.kernel.ls, gb.kernel.ls) &&
		sameBits(ga.basisXs()[:n*ga.dim], gb.basisXs()[:n*gb.dim])
}

// sameGrid reports whether two plans sweep the same grid.
func sameGrid(a, b *SweepPlan) bool {
	if a.ctxDims != b.ctxDims || len(a.levels) != len(b.levels) {
		return false
	}
	for d, lv := range a.levels {
		if !sameBits(lv, b.levels[d]) {
			return false
		}
	}
	return true
}

// sameBits reports whether two slices hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// meanWeights returns the vector a posterior mean dots the kernel column
// with: α of the exact engine, the DTC α of the sparse one.
func meanWeights(g *GP) []float64 {
	if g.sp != nil {
		return g.sp.alpha
	}
	return g.alpha
}

// shardScratch is the working memory one shard owns.
type shardScratch struct {
	li           []int
	rowsE, rowsO [][]float64
	// cols holds each group's pending columns; spare takes a copy for every
	// solve but a group's last, since a fused solve consumes its columns.
	cols      [][][]float64
	spare     []float64
	spareCols [][]float64
	means     []float64
	pos       [sweepTile]int // index-list position of each pending column
	mt, vsq   [sweepTile]float64
	muNy      [sweepTile]float64
	vsqNy     [sweepTile]float64
	solver    linalg.FusedSolver
}

func (s *sweep) newShardScratch(tile int) *shardScratch {
	p := s.plans[0]
	sc := &shardScratch{
		li:        make([]int, len(p.levels)),
		rowsE:     make([][]float64, len(p.evens)),
		rowsO:     make([][]float64, len(p.odds)),
		cols:      make([][][]float64, len(s.groups)),
		spareCols: make([][]float64, tile),
	}
	spare := 0
	for k, gr := range s.groups {
		buf := make([]float64, tile*gr.n)
		sc.cols[k] = make([][]float64, tile)
		for b := range sc.cols[k] {
			sc.cols[k][b] = buf[b*gr.n : (b+1)*gr.n]
		}
		spare = max(spare, len(buf))
	}
	sc.spare = make([]float64, spare)
	if s.screen != nil {
		sc.means = make([]float64, len(s.screen.Means))
	}
	return sc
}

// shard evaluates positions [lo, hi) of the index list and returns how
// many it kept. Per candidate it builds the screened groups' columns, lets
// the screen decide from their means, and builds the other groups' columns
// only for a kept candidate, into the pending tile. Full tiles go through
// solvePending, and so does the remainder at the end of the shard.
//
//edgebol:hot
func (s *sweep) shard(lo, hi int) int {
	tile := min(hi-lo, sweepTile)
	sc := s.newShardScratch(tile)
	kept, pending := 0, 0
	for j := lo; j < hi; j++ {
		s.plans[0].levelIndices(int(s.idxs[j]), sc.li)
		if s.screen != nil {
			for k := range s.groups {
				if s.groups[k].screened {
					s.buildColumn(sc, k, pending)
				}
			}
			for q, i := range s.screen.Means {
				sc.means[q] = linalg.Dot(sc.cols[s.group[i]][pending], meanWeights(s.plans[i].g))
				s.mu[i][j] = sc.means[q]
			}
			if !s.screen.Keep(j, sc.means) {
				continue
			}
		}
		for k := range s.groups {
			if !s.groups[k].screened {
				s.buildColumn(sc, k, pending)
			}
		}
		sc.pos[pending] = j
		pending++
		kept++
		if pending == tile {
			s.solvePending(sc, pending)
			pending = 0
		}
	}
	if pending > 0 {
		s.solvePending(sc, pending)
	}
	return kept
}

// buildColumn assembles group k's cross-covariance column for the
// candidate whose level indices sc.li holds into pending slot b: the
// squared distances from the lead's tables and context partials, then the
// family's covariance.
//
//edgebol:hot
func (s *sweep) buildColumn(sc *shardScratch, k, b int) {
	gr := &s.groups[k]
	p := gr.lead
	for e, d := range p.evens {
		sc.rowsE[e] = p.tables[d][sc.li[d]][:gr.n]
	}
	for o, d := range p.odds {
		sc.rowsO[o] = p.tables[d][sc.li[d]][:gr.n]
	}
	col := sc.cols[k][b]
	fillSqDist(col, gr.c0, gr.c1, sc.rowsE, sc.rowsO)
	p.g.kernel.family.cov(col)
}

// solvePending runs the cnt pending columns of every group through each
// member's fused solves — one against the exact engine's factor, or the
// two of Posterior's sparse branch — and writes the results at the
// candidates' positions. A fused solve consumes its columns, so every
// solve but a group's last runs on a copy.
//
//edgebol:hot
func (s *sweep) solvePending(sc *shardScratch, cnt int) {
	pos := sc.pos[:cnt]
	mt, vsq := sc.mt[:cnt], sc.vsq[:cnt]
	muNy, vsqNy := sc.muNy[:cnt], sc.vsqNy[:cnt]
	for k := range s.groups {
		gr := &s.groups[k]
		if gr.n == 0 {
			for _, i := range gr.members {
				for _, j := range pos {
					s.mu[i][j], s.sigma[i][j] = 0, math.Sqrt(priorVar)
				}
			}
			continue
		}
		solves := len(gr.members)
		if gr.lead.g.sp != nil {
			solves *= 2
		}
		for _, i := range gr.members {
			g := s.plans[i].g
			if g.sp == nil {
				solves--
				sc.solver.SolveFused(g.chol, sc.operand(k, gr.n, cnt, solves == 0), g.alpha, mt, vsq)
				for b, j := range pos {
					v := priorVar - vsq[b]
					if v < 0 {
						v = 0
					}
					s.mu[i][j], s.sigma[i][j] = mt[b], math.Sqrt(v)
				}
				continue
			}
			solves -= 2
			sc.solver.SolveFused(g.sp.cholSig, sc.operand(k, gr.n, cnt, false), g.sp.alpha, mt, vsq)
			sc.solver.SolveFused(g.sp.cholKmm, sc.operand(k, gr.n, cnt, solves == 0), g.sp.zeroAlpha[:gr.n], muNy, vsqNy)
			for b, j := range pos {
				v := priorVar - vsqNy[b] + vsq[b]
				if v < 0 {
					v = 0
				}
				s.mu[i][j], s.sigma[i][j] = mt[b], math.Sqrt(v)
			}
		}
	}
}

// operand returns columns a fused solve may consume: group k's pending
// columns themselves for the group's last solve, a fresh copy otherwise.
//
//edgebol:hot
func (sc *shardScratch) operand(k, n, cnt int, last bool) [][]float64 {
	if last {
		return sc.cols[k][:cnt]
	}
	for b, col := range sc.cols[k][:cnt] {
		sc.spareCols[b] = sc.spare[b*n : (b+1)*n]
		copy(sc.spareCols[b], col)
	}
	return sc.spareCols[:cnt]
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
		// control terms on the even chain and three on the odd one. The
		// vector body makes the same adds in the same order; this loop
		// takes its tail.
		e0, e1, o0, o1, o2 := rowsE[0], rowsE[1], rowsO[0], rowsO[1], rowsO[2]
		for i := fillVector23(col, c0, c1, e0, e1, o0, o1, o2); i < len(col); i++ {
			col[i] = ((c0[i] + e0[i]) + e1[i]) + (((c1[i] + o0[i]) + o1[i]) + o2[i])
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
