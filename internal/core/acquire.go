package core

import (
	"math"
	"time"

	"repro/internal/gp"
)

// This file implements the acquisition engine, the one selection path of
// SelectControl. It runs in one of two modes, fixed when the agent is
// built.
//
// Full coverage evaluates every grid point, in index order, so slot s is
// grid index s. It serves every agent that is not adaptive: AcqExhaustive
// at any grid size, AcqAuto at or below acqAutoThreshold, and SafeOpt.
//
// The budgeted mode serves adaptive agents (AcqAuto above the threshold)
// — the 31⁴×8 ≈ 7.4M-candidate spaces the split-inference dimension
// opens up. It evaluates a budgeted subset chosen in three waves:
//
//  1. a mandatory set — the safe seeds S₀ (the selection rules need their
//     posteriors unconditionally) plus every training anchor (grid points
//     the agent has actually observed; the incumbent optimum is always
//     among them, so the previous period's winner is never lost);
//  2. a coarse-to-fine multigrid — a strided sub-lattice of at most
//     coarseTarget points (always containing each dimension's endpoints),
//     refined by repeatedly halving the strides and re-evaluating the
//     ±stride axis neighbours of the current top slots until native
//     resolution;
//  3. a best-first flood — a priority queue over all evaluated points,
//     keyed safest-and-cheapest-first, expanding ±1 grid neighbours until
//     the frontier dies out, the evaluation budget is exhausted, or
//     floodPatience pops go by without improving the best safe LCB.
//
// Both modes score every evaluated candidate with the same formulas — same
// safety test, same LCB, same seed retirement and fallback, same
// tie-breaking on grid index. The budgeted mode holds a bounded optimum
// regret while evaluating a few percent of the grid.
//
// Full coverage with the safe set on also screens the grid (see keep):
// every candidate gets its delay and mAP means, and only the seeds and the
// candidates eq. 8 can still certify from those means get the variance
// solves. The budgeted mode keeps σ for every evaluated candidate, since
// its searches rank unsafe candidates by how informed they are.
const (
	// informedSigma gates the safe-set test: a candidate is certified only
	// when the posterior actually carries information about it — at prior
	// uncertainty (σ ≈ 1) the bound test is vacuous whenever the
	// thresholds are lax relative to the prior, and "unexplored" must not
	// read as "safe".
	informedSigma = 0.95
	// seedRetireSigma is the learned-enough threshold below which a seed
	// whose posterior mean violates a constraint is retired from
	// selection (it still counts as safe — S₀ membership is the
	// operator's prior belief).
	seedRetireSigma = 0.5

	// minEvalBudget and maxEvalDivisor bound the adaptive engine's
	// per-period posterior evaluations: min(size, max(minEvalBudget,
	// size/maxEvalDivisor)) — at most a few percent of a large grid, and
	// never less than a healthy multiple of the coarse lattice.
	minEvalBudget  = 16384
	maxEvalDivisor = 25
	// coarseTarget caps the initial strided sub-lattice size.
	coarseTarget = 4096
	// refineTopK is the number of incumbent slots whose axis neighbours
	// each multigrid refinement round evaluates.
	refineTopK = 48
	// floodBatch is the number of pending candidates that triggers a
	// posterior flush during the best-first flood.
	floodBatch = 512
	// floodPatience is the number of consecutive queue pops without an
	// improvement of the best safe LCB after which the flood gives up.
	floodPatience = 2048
)

// predSigma inflates a latent posterior σ by the observation noise ζ:
// the delay constraint of eq. 2 bounds the *noisy per-period
// observations* d_t, so its safety test uses the predictive bound
// β·√(σ² + ζ²) — with the latent bound alone the agent legally rides the
// boundary and observation noise produces violations far beyond the
// paper's ≈2 %.
func predSigma(s, zeta float64) float64 { return math.Sqrt(s*s + zeta*zeta) }

// acqEngine is the pooled state of the acquisition. Every slice is
// allocated once at construction to its worst-case size (the evaluation
// budget), so the per-period hot loops never allocate: slot s of
// idx/mu/sigma/lcb/rank/safe describes the s-th candidate evaluated this
// period, in evaluation order. mu/sigma hold one buffer per learned
// objective, indexed by objective id, plus the cost of a decomposed-cost
// agent, which flush combines from the power posteriors. A slot the screen
// drops has safe = false and its other entries unwritten: the selection
// reads mu, sigma and lcb only at safe and seed slots, and rank at the
// winner, a safe or seed slot, and otherwise only in the budgeted mode,
// which never screens.
type acqEngine struct {
	a        *Agent
	gridSize int
	maxEval  int

	// plans are the objectives' sweep plans in Agent.objs order; outMu and
	// outSigma hold a flush's windows of their mu/sigma buffers.
	plans           []*gp.SweepPlan
	outMu, outSigma [][]float64
	screen          gp.Screen

	// dimN and strideFlat are the per-dimension level counts and flat-
	// index strides of the grid's Enumerate ordering (last dim fastest).
	dimN       [ControlDims]int
	strideFlat [ControlDims]int

	// Per-slot candidate state, evaluation-ordered.
	idx       []int32
	mu, sigma [numObjectives][]float64
	lcb       []float64
	rank      []uint8 // 0 safe, 1 informed-unsafe, 2 uninformed
	safe      []bool

	// seen is a grid-indexed dedup bitmap (budgeted mode only).
	seen []uint64
	// heap is the flood's priority queue of slots, safest-cheapest first.
	heap []int32
	// seedSlot maps each Options.SafeSeed entry to its slot, aligned with
	// Agent.safeSeedIx (duplicate seeds share a slot).
	seedSlot []int32
	// topSlots is the refinement rounds' incumbent scratch.
	topSlots []int32
	// latIdx holds the per-dimension level indices of the coarse lattice.
	latIdx [ControlDims][]int32
	// stride is the current multigrid stride per dimension.
	stride [ControlDims]int

	// Per-period scalars.
	cbuf                [ContextDims]float64
	cf                  []float64
	n, done             int // added and evaluated watermarks
	dmaxN, rminN, zetaD float64
	workers             int
	refineRounds        int
	varianceSolves      int
	budgetHit           bool
	flooding            bool
	improved            bool
	bestSafeLCB         float64
	bestSafeIdx         int32
}

// AcquisitionBudget returns an AcqAuto agent's per-period posterior-
// evaluation budget for a grid of the given size: the full grid at or
// below the auto threshold (full-coverage mode), min(size,
// max(minEvalBudget, size/maxEvalDivisor)) above it. Exported so
// experiment verifiers can assert the budget from the outside.
func AcquisitionBudget(size int) int {
	if size <= acqAutoThreshold {
		return size
	}
	budget := size / maxEvalDivisor
	if budget < minEvalBudget {
		budget = minEvalBudget
	}
	if budget > size {
		budget = size
	}
	return budget
}

// newAcqEngine allocates the pooled acquisition state for an agent: full
// coverage, or for adaptive agents the budget of AcquisitionBudget.
func newAcqEngine(a *Agent) *acqEngine {
	g := a.opts.Grid
	size := g.Size()
	e := &acqEngine{a: a, gridSize: size, maxEval: size}
	if a.adaptive {
		e.maxEval = AcquisitionBudget(size)
	}
	stride := 1
	for d := ControlDims - 1; d >= 0; d-- {
		e.dimN[d] = g.dimLevels(d)
		e.strideFlat[d] = stride
		stride *= e.dimN[d]
	}
	e.idx = make([]int32, e.maxEval)
	for id := range e.mu {
		if id == gpCost || a.learned(id) != nil {
			e.mu[id] = make([]float64, e.maxEval)
			e.sigma[id] = make([]float64, e.maxEval)
		}
	}
	e.outMu = make([][]float64, len(a.objs))
	e.outSigma = make([][]float64, len(a.objs))
	e.screen.Keep = e.keep
	for i, o := range a.objs {
		e.plans = append(e.plans, o.plan)
		if o.id == gpDelay || o.id == gpMAP {
			e.screen.Means = append(e.screen.Means, i) // delay precedes mAP
		}
	}
	e.lcb = make([]float64, e.maxEval)
	e.rank = make([]uint8, e.maxEval)
	e.safe = make([]bool, e.maxEval)
	if a.adaptive {
		e.seen = make([]uint64, (size+63)/64)
	}
	e.heap = make([]int32, 0, e.maxEval)
	e.seedSlot = make([]int32, len(a.safeSeedIx))
	if !a.adaptive {
		// Full coverage: slot == grid index, so the seed slots are static.
		for k, gi := range a.safeSeedIx {
			e.seedSlot[k] = int32(gi)
		}
	}
	e.topSlots = make([]int32, 0, refineTopK)
	for d := range e.latIdx {
		e.latIdx[d] = make([]int32, 0, e.dimN[d])
	}
	return e
}

// reset prepares the pooled state for one period.
func (e *acqEngine) reset(ctx Context) {
	a := e.a
	e.cf = ctx.appendFeatures(e.cbuf[:0])
	e.n, e.done = 0, 0
	e.refineRounds = 0
	e.varianceSolves = 0
	e.budgetHit = false
	e.flooding = false
	e.improved = false
	e.heap = e.heap[:0]
	e.bestSafeLCB = math.Inf(1)
	e.bestSafeIdx = math.MaxInt32
	e.workers = a.opts.InferenceWorkers
	cons := a.opts.Constraints
	e.dmaxN = a.opts.Norm.Delay.Norm(cons.MaxDelay)
	e.rminN = a.opts.Norm.MAP.Norm(cons.MinMAP)
	e.zetaD = math.Sqrt(a.learned(gpDelay).NoiseVar()) //edgebol:allow nanguard -- NoiseVar is validated non-negative at construction
	for i := range e.seen {
		e.seen[i] = 0
	}
}

// add appends one candidate by grid index, deduplicated against the seen
// bitmap and capped at the evaluation budget. Budgeted mode only.
//
//edgebol:hot
func (e *acqEngine) add(gi int) {
	w := gi >> 6
	b := uint64(1) << (gi & 63)
	if e.seen[w]&b != 0 {
		return
	}
	if e.n >= e.maxEval {
		e.budgetHit = true
		return
	}
	e.seen[w] |= b
	e.idx[e.n] = int32(gi)
	e.n++
}

// addAll stages the whole grid in index order (full coverage; slot ==
// grid index).
//
//edgebol:hot
func (e *acqEngine) addAll() {
	for gi := 0; gi < e.gridSize; gi++ {
		e.idx[gi] = int32(gi)
	}
	e.n = e.gridSize
}

// addMandatory stages the safe seeds (recording their slots) and every
// training anchor — the grid points of the agent's observation history.
// The incumbent optimum from the previous period is always among the
// anchors, so it is re-evaluated unconditionally every period.
func (e *acqEngine) addMandatory() {
	a := e.a
	for k, gi := range a.safeSeedIx {
		if w, b := gi>>6, uint64(1)<<(gi&63); e.seen[w]&b != 0 {
			// A duplicate seed: reuse the slot of its first occurrence, as
			// full coverage does, so the retirement and fallback loops keep
			// the same duplicate semantics.
			for j := 0; j < k; j++ {
				if a.safeSeedIx[j] == gi {
					e.seedSlot[k] = e.seedSlot[j]
					break
				}
			}
			continue
		}
		e.seedSlot[k] = int32(e.n)
		e.add(gi)
	}
	g := a.learned(gpDelay)
	for i := 0; i < g.Len(); i++ {
		row := g.TrainingRow(i)
		x := Control{
			Resolution: row[ContextDims+dimResolution],
			Airtime:    row[ContextDims+dimAirtime],
			GPUSpeed:   row[ContextDims+dimGPUSpeed],
			MCS:        row[ContextDims+dimMCS],
			SplitLayer: row[ContextDims+dimSplit],
		}
		e.add(a.opts.Grid.Index(x))
	}
}

// latCount returns the strided lattice's point count along dimension d:
// every stride[d]-th level plus the far endpoint.
func (e *acqEngine) latCount(d int) int {
	n := e.dimN[d]
	if n == 1 {
		return 1
	}
	return (n-2)/e.stride[d] + 2
}

// addCoarseLattice stages a strided sub-lattice of at most coarseTarget
// points: starting from native resolution, the stride of the currently
// largest dimension is doubled until the lattice fits. Both endpoints of
// every dimension are always included.
func (e *acqEngine) addCoarseLattice() {
	var cnt [ControlDims]int
	total := 1
	for d := range e.stride {
		e.stride[d] = 1
		cnt[d] = e.latCount(d)
		total *= cnt[d]
	}
	for total > coarseTarget {
		bd := -1
		for d := range cnt {
			if cnt[d] > 2 && (bd < 0 || cnt[d] > cnt[bd]) {
				bd = d
			}
		}
		if bd < 0 {
			break
		}
		e.stride[bd] *= 2
		total /= cnt[bd]
		cnt[bd] = e.latCount(bd)
		total *= cnt[bd]
	}
	for d := range e.latIdx {
		lat := e.latIdx[d][:0]
		n, h := e.dimN[d], e.stride[d]
		if n == 1 {
			e.latIdx[d] = append(lat, 0)
			continue
		}
		for l := 0; l <= n-2; l += h {
			lat = append(lat, int32(l))
		}
		e.latIdx[d] = append(lat, int32(n-1))
	}
	var pos [ControlDims]int
	for {
		gi := 0
		for d := 0; d < ControlDims; d++ {
			gi += int(e.latIdx[d][pos[d]]) * e.strideFlat[d]
		}
		e.add(gi)
		d := ControlDims - 1
		for ; d >= 0; d-- {
			pos[d]++
			if pos[d] < len(e.latIdx[d]) {
				break
			}
			pos[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// refine runs the multigrid refinement: halve every stride, evaluate the
// ±stride axis neighbours of the current top slots, and repeat until
// native resolution.
func (e *acqEngine) refine() {
	maxStride := 0
	for _, h := range e.stride {
		if h > maxStride {
			maxStride = h
		}
	}
	for maxStride > 1 {
		for d := range e.stride {
			if e.stride[d] > 1 {
				e.stride[d] >>= 1
			}
		}
		maxStride >>= 1
		e.refineRounds++
		e.selectTop()
		for _, s := range e.topSlots {
			e.expand(int(e.idx[s]))
		}
		e.flush()
	}
	for d := range e.stride {
		e.stride[d] = 1
	}
}

// expand stages the in-bounds ±stride axis neighbours of a grid point,
// clamping overshoot onto the dimension's endpoints.
//
//edgebol:hot
func (e *acqEngine) expand(gi int) {
	rem := gi
	for d := ControlDims - 1; d >= 0; d-- {
		n := e.dimN[d]
		l := rem % n
		rem /= n
		if n == 1 {
			continue
		}
		h := e.stride[d]
		sf := e.strideFlat[d]
		if l-h >= 0 {
			e.add(gi - h*sf)
		} else if l > 0 {
			e.add(gi - l*sf)
		}
		if l+h <= n-1 {
			e.add(gi + h*sf)
		} else if l < n-1 {
			e.add(gi + (n-1-l)*sf)
		}
	}
}

// slotBetter orders slots safest-first, then by ascending LCB, then by
// ascending grid index for determinism.
//
//edgebol:hot
func (e *acqEngine) slotBetter(x, y int32) bool {
	if e.rank[x] != e.rank[y] {
		return e.rank[x] < e.rank[y]
	}
	if e.lcb[x] != e.lcb[y] { //edgebol:allow floateq -- exact-equality tie detection; ties fall through to the index order
		return e.lcb[x] < e.lcb[y]
	}
	return e.idx[x] < e.idx[y]
}

// selectTop fills topSlots with the refineTopK best evaluated slots in
// slotBetter order (insertion into a small sorted array).
//
//edgebol:hot
func (e *acqEngine) selectTop() {
	e.topSlots = e.topSlots[:0]
	for s := 0; s < e.done; s++ {
		k := len(e.topSlots)
		if k == refineTopK {
			if !e.slotBetter(int32(s), e.topSlots[k-1]) {
				continue
			}
			k--
		} else {
			e.topSlots = e.topSlots[:k+1]
		}
		i := k
		for i > 0 && e.slotBetter(int32(s), e.topSlots[i-1]) {
			e.topSlots[i] = e.topSlots[i-1]
			i--
		}
		e.topSlots[i] = int32(s)
	}
}

// heapPush inserts a slot into the flood's priority queue.
//
//edgebol:hot
func (e *acqEngine) heapPush(s int32) {
	n := len(e.heap)
	e.heap = e.heap[:n+1]
	e.heap[n] = s
	for n > 0 {
		p := (n - 1) / 2
		if !e.slotBetter(e.heap[n], e.heap[p]) {
			break
		}
		e.heap[n], e.heap[p] = e.heap[p], e.heap[n]
		n = p
	}
}

// heapPop removes and returns the best slot of the priority queue.
//
//edgebol:hot
func (e *acqEngine) heapPop() int32 {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && e.slotBetter(e.heap[l], e.heap[m]) {
			m = l
		}
		if r < n && e.slotBetter(e.heap[r], e.heap[m]) {
			m = r
		}
		if m == i {
			return top
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}

// flood runs the best-first local search: all evaluated slots enter a
// priority queue; popping a slot stages its ±1 grid neighbours, flushing
// posteriors every floodBatch additions (newly scored slots join the
// queue). It stops when the frontier dies out, the evaluation budget is
// exhausted, or floodPatience pops go by without improving the best safe
// LCB.
func (e *acqEngine) flood() {
	e.flooding = true
	for s := 0; s < e.done; s++ {
		e.heapPush(int32(s))
	}
	pops, lastImprove := 0, 0
	for len(e.heap) > 0 {
		if e.budgetHit && e.n == e.done {
			break
		}
		if pops-lastImprove >= floodPatience {
			break
		}
		s := e.heapPop()
		pops++
		e.expand(int(e.idx[s]))
		if e.n-e.done >= floodBatch {
			e.improved = false
			e.flush()
			if e.improved {
				lastImprove = pops
			}
		}
	}
	e.flooding = false
	e.flush()
}

// flush evaluates the pending candidates [done, n): one SweepSubset over
// every learned objective, the decomposed-cost combination, and the
// safety/LCB scoring. During the flood, newly scored slots join the
// priority queue.
//
// safe[lo:hi] first marks the slots that get a full posterior: all of them
// without a screen; with one, the seeds, then the screen's verdict (keep).
// scoreRange then replaces each mark with the eq. 8 verdict.
func (e *acqEngine) flush() {
	lo, hi := e.done, e.n
	if lo == hi {
		return
	}
	a := e.a
	var screen *gp.Screen
	if a.adaptive || a.opts.DisableSafeSet {
		for s := lo; s < hi; s++ {
			e.safe[s] = true
		}
	} else {
		for s := lo; s < hi; s++ {
			e.safe[s] = false
		}
		for _, s := range e.seedSlot {
			e.safe[s] = true
		}
		screen = &e.screen
	}
	for i, o := range a.objs {
		e.outMu[i], e.outSigma[i] = e.mu[o.id][lo:hi], e.sigma[o.id][lo:hi]
	}
	e.varianceSolves += gp.SweepSubset(e.plans, e.cf, e.idx[lo:hi], screen, e.outMu, e.outSigma, e.workers)
	if a.opts.DecomposedCost {
		for s := lo; s < hi; s++ {
			if !e.safe[s] {
				continue
			}
			c := a.decomposedCost(Posterior{Mean: e.mu[gpServerPower][s], Sigma: e.sigma[gpServerPower][s]},
				Posterior{Mean: e.mu[gpBSPower][s], Sigma: e.sigma[gpBSPower][s]})
			e.mu[gpCost][s], e.sigma[gpCost][s] = c.Mean, c.Sigma
		}
	}
	e.scoreRange(lo, hi)
	if e.flooding {
		for s := lo; s < hi; s++ {
			e.heapPush(int32(s))
		}
	}
	e.done = hi
}

// keep is the full-coverage screen, gp.Screen's Keep over the delay and mAP
// means: a slot gets its variance solves when it is a seed (flush marked
// it safe) or when eq. 8 can still certify it. scoreRange requires
// μ_d + β·predSigma(σ_d, ζ_d) ≤ d_max and μ_ρ − β·σ_ρ ≥ ρ_min. For every
// σ ≥ 0, predSigma(σ, ζ) ≥ ζ and μ_ρ − β·σ_ρ ≤ μ_ρ hold after rounding,
// since rounding is monotone, so this test in the same floating-point
// shape rejects only slots that scoreRange rejects. It records its verdict
// in safe; the sweep's workers call it for distinct slots.
func (e *acqEngine) keep(j int, means []float64) bool {
	s := e.done + j
	ok := e.safe[s] || (means[0]+e.a.opts.SafeBeta*e.zetaD <= e.dmaxN && means[1] >= e.rminN)
	e.safe[s] = ok
	return ok
}

// scoreRange applies the eq. 8 safety test and the eq. 9 LCB to freshly
// evaluated slots, assigns their search ranks, and tracks the best safe
// LCB for the flood's patience counter. A slot the screen dropped (flush
// left it unmarked) stays unsafe and unscored.
//
// The delay test uses the predictive bound (predSigma); the mAP test uses
// the latent bound: a finite-batch mAP estimate dipping below ρ^min is
// measurement noise, not a service failure, and the paper's own Fig. 9
// inset shows observed mAP fluctuating below ρ^min at the optimum.
//
//edgebol:hot
func (e *acqEngine) scoreRange(lo, hi int) {
	a := e.a
	disable := a.opts.DisableSafeSet
	sb, ab := a.opts.SafeBeta, a.opts.AcqBeta
	for s := lo; s < hi; s++ {
		if !e.safe[s] {
			continue
		}
		sd := e.sigma[gpDelay][s]
		sm := e.sigma[gpMAP][s]
		ok := disable
		if !ok {
			ok = sd < informedSigma && sm < informedSigma &&
				e.mu[gpDelay][s]+sb*predSigma(sd, e.zetaD) <= e.dmaxN &&
				e.mu[gpMAP][s]-sb*sm >= e.rminN
		}
		e.safe[s] = ok
		l := e.mu[gpCost][s] - ab*e.sigma[gpCost][s]
		e.lcb[s] = l
		switch {
		case ok:
			e.rank[s] = 0
		case sd < informedSigma || sm < informedSigma:
			e.rank[s] = 1
		default:
			e.rank[s] = 2
		}
		if ok && (l < e.bestSafeLCB || (l == e.bestSafeLCB && e.idx[s] < e.bestSafeIdx)) { //edgebol:allow floateq -- exact-equality tie detection for the deterministic index order
			e.bestSafeLCB = l
			e.bestSafeIdx = e.idx[s]
			e.improved = true
		}
	}
}

// finish runs the selection over the evaluated slots: seed retirement,
// the constrained-LCB argmin with the first-index tie-break (or the
// SafeOpt rule), the least-violating-seed fallback, and the
// diagnostics/metrics.
func (e *acqEngine) finish(start time.Time) (Control, SelectionInfo) {
	a := e.a
	nSafe := 0
	for s := 0; s < e.n; s++ {
		if e.safe[s] {
			nSafe++
		}
	}
	// S_t always contains S₀ (eq. 8 / Algorithm 1 line 6). A seed is
	// nevertheless *retired from selection* — though it still counts as
	// safe — once the posterior has actually learned about it (σ well
	// below the prior) and its mean violates a constraint: S₀ membership
	// encodes the operator's prior belief, and repeatedly re-picking a seed
	// that measurements show to be infeasible would lock the agent onto a
	// violating configuration whenever that seed is also the cost
	// minimizer. Duplicate seeds share a slot.
	for _, s := range e.seedSlot {
		if e.safe[s] {
			continue
		}
		nSafe++
		retired := (e.mu[gpDelay][s] > e.dmaxN || e.mu[gpMAP][s] < e.rminN) &&
			e.sigma[gpDelay][s] < seedRetireSigma && e.sigma[gpMAP][s] < seedRetireSigma
		e.safe[s] = !retired
	}
	var best int
	var bestLCB float64
	if a.opts.Rule == AcquisitionSafeOpt {
		best, bestLCB = e.pickSafeOpt()
	} else {
		best, bestLCB = e.pickLCB()
	}
	if best < 0 {
		// Every seed retired and nothing certified: the problem looks
		// infeasible. Fall back to the least-violating seed by posterior
		// mean — the §5 "Practical Issues" behaviour of staying within S₀.
		bestScore := math.Inf(1)
		for _, s := range e.seedSlot {
			score := math.Max(e.mu[gpDelay][s]-e.dmaxN, 0) + math.Max(e.rminN-e.mu[gpMAP][s], 0)
			if score < bestScore {
				bestScore = score
				best = int(s)
			}
		}
		bestLCB = e.mu[gpCost][best] - a.opts.AcqBeta*e.sigma[gpCost][best]
	}
	// scoreRange gave rank 0 to exactly the slots that passed eq. 8, and
	// every slot that can win here was scored: a slot that passed, or a
	// seed, which is always evaluated and never screened. A winner that
	// failed the test is therefore a seed slot, kept in S_t or picked by
	// the least-violating fallback above.
	fromSeed := e.rank[best] != 0
	info := SelectionInfo{
		SafeSetSize:         nSafe,
		FromSeed:            fromSeed,
		Adaptive:            a.adaptive,
		CandidatesEvaluated: e.n,
		VarianceSolves:      e.varianceSolves,
		RefineRounds:        e.refineRounds,
		LCB:                 bestLCB,
		Cost:                Posterior{Mean: e.mu[gpCost][best], Sigma: e.sigma[gpCost][best]},
		Delay:               Posterior{Mean: e.mu[gpDelay][best], Sigma: e.sigma[gpDelay][best]},
		MAP:                 Posterior{Mean: e.mu[gpMAP][best], Sigma: e.sigma[gpMAP][best]},
		SweepSeconds:        time.Since(start).Seconds(),
	}
	a.met.safeSize.Set(float64(nSafe))
	a.met.lcb.Set(bestLCB)
	a.met.sweep.Observe(info.SweepSeconds)
	a.met.acqCandidates.Add(uint64(e.n))
	a.met.acqVariance.Add(uint64(e.varianceSolves))
	a.met.acqRefines.Add(uint64(e.refineRounds))
	if e.budgetHit {
		a.met.acqFallback.Inc()
	}
	if fromSeed {
		a.met.seedFallback.Inc()
	}
	a.lastInfo = info
	return a.opts.Grid.At(int(e.idx[best])), info
}

// pickLCB returns the safe slot minimizing the constrained LCB of eq. 9,
// ties broken by ascending grid index, or -1 when no slot is safe.
func (e *acqEngine) pickLCB() (int, float64) {
	best := -1
	bestLCB := math.Inf(1)
	for s := 0; s < e.n; s++ {
		if !e.safe[s] {
			continue
		}
		l := e.lcb[s]
		if l < bestLCB || (l == bestLCB && best >= 0 && e.idx[s] < e.idx[best]) { //edgebol:allow floateq -- tie-break on grid index: the first grid index wins
			bestLCB = l
			best = s
		}
	}
	return best, bestLCB
}

// pickSafeOpt implements the SafeOpt-style acquisition over the current
// safe set: among the potential minimizers (points whose cost LCB beats
// the best cost UCB) and the expanders (safe points whose confidence
// interval straddles a constraint boundary neighbourhood), sample the one
// with the largest overall uncertainty, first slot winning ties. SafeOpt
// runs only under full coverage (NewAgent never pairs it with the
// budgeted mode), so slot order is grid order.
func (e *acqEngine) pickSafeOpt() (int, float64) {
	o := e.a.opts
	bestUCB := math.Inf(1)
	for s := 0; s < e.n; s++ {
		if !e.safe[s] {
			continue
		}
		if ucb := e.mu[gpCost][s] + o.AcqBeta*e.sigma[gpCost][s]; ucb < bestUCB {
			bestUCB = ucb
		}
	}
	// Expander neighbourhood: within this many σ-units of a boundary.
	const edge = 0.5
	best := -1
	bestUnc := -1.0
	for s := 0; s < e.n; s++ {
		if !e.safe[s] {
			continue
		}
		minimizer := e.lcb[s] <= bestUCB
		expander := e.mu[gpDelay][s]+o.SafeBeta*e.sigma[gpDelay][s] >= e.dmaxN-edge ||
			e.mu[gpMAP][s]-o.SafeBeta*e.sigma[gpMAP][s] <= e.rminN+edge
		if !minimizer && !expander {
			continue
		}
		unc := math.Max(e.sigma[gpCost][s], math.Max(e.sigma[gpDelay][s], e.sigma[gpMAP][s]))
		if unc > bestUnc {
			bestUnc = unc
			best = s
		}
	}
	if best < 0 {
		return best, 0
	}
	return best, e.lcb[best]
}
