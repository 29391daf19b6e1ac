package telemetry

import "sync"

// PeriodRecord is one structured event per control period — the trace the
// paper reads off its dashboards (Figs. 9–13) made programmatic. Fields
// use plain numeric types so the telemetry package stays dependency-free;
// the core agent fills them from its own vocabulary.
type PeriodRecord struct {
	// Period is the agent's observation count after this period (1-based).
	Period int

	// Context: the slice state c_t.
	NumUsers int
	MeanCQI  float64
	VarCQI   float64

	// Control: the joint policy x_t.
	Resolution float64
	Airtime    float64
	GPUSpeed   float64
	MCS        float64
	// SplitLayer is the device/edge DNN partition position (0 = all-edge,
	// the paper's original workload).
	SplitLayer float64

	// KPIs observed for the period, raw units.
	Delay       float64
	GPUDelay    float64
	MAP         float64
	ServerPower float64
	BSPower     float64
	// Cost is the scalar energy cost u_t = δ₁·p_s + δ₂·p_b.
	Cost float64

	// Safe-set and acquisition diagnostics.
	SafeSetSize int
	FromSeed    bool
	LCB         float64
	// AcqMode is the resolved acquisition engine ("exhaustive" or
	// "adaptive"); CandidatesEvaluated counts grid points scored this
	// period, VarianceSolves those of them that also got a posterior σ
	// (fewer once the screen of full coverage drops candidates whose means
	// already fail the safe-set test), and RefineRounds the multigrid
	// refinement rounds of the adaptive engine (0 when exhaustive).
	AcqMode             string
	CandidatesEvaluated int
	VarianceSolves      int
	RefineRounds        int

	// Posterior beliefs at the chosen control, normalized GP units,
	// indexed cost=0, delay=1, mAP=2.
	PostMean  [3]float64
	PostSigma [3]float64

	// GP training-set state after the observation.
	TrainSize int
	// Evictions is the cumulative sliding-window eviction count across
	// the agent's GPs.
	Evictions uint64

	// SweepSeconds is the wall-clock latency of the posterior sweep +
	// safe set + acquisition.
	SweepSeconds float64
}

// defaultPeriodCapacity bounds the retained per-period history; older
// records are overwritten ring-buffer style. 4096 periods is hours of
// learning at the paper's 30 s control period.
const defaultPeriodCapacity = 4096

// periodLog is the registry's bounded event stream: a ring buffer plus
// fan-out sinks for live consumers.
type periodLog struct {
	mu    sync.Mutex
	recs  []PeriodRecord
	next  int
	full  bool
	cap   int
	sinks []func(PeriodRecord)
}

// EmitPeriod appends a per-period record to the bounded event log and
// fans it out to all registered sinks (synchronously — sinks must be
// fast or buffer internally). A nil registry no-ops.
func (r *Registry) EmitPeriod(rec PeriodRecord) {
	if r == nil {
		return
	}
	p := &r.periods
	p.mu.Lock()
	if p.cap == 0 {
		p.cap = defaultPeriodCapacity
	}
	if len(p.recs) < p.cap {
		p.recs = append(p.recs, rec)
	} else {
		p.recs[p.next] = rec
		p.full = true
	}
	p.next = (p.next + 1) % p.cap
	sinks := p.sinks
	p.mu.Unlock()
	for _, fn := range sinks {
		fn(rec)
	}
}

// Periods returns a copy of the retained per-period records, oldest
// first. A nil registry returns nil.
func (r *Registry) Periods() []PeriodRecord {
	if r == nil {
		return nil
	}
	p := &r.periods
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.full {
		return append([]PeriodRecord(nil), p.recs...)
	}
	out := make([]PeriodRecord, 0, len(p.recs))
	out = append(out, p.recs[p.next:]...)
	out = append(out, p.recs[:p.next]...)
	return out
}

// AddPeriodSink registers a live consumer invoked synchronously on every
// EmitPeriod. A nil registry no-ops.
func (r *Registry) AddPeriodSink(fn func(PeriodRecord)) {
	if r == nil || fn == nil {
		return
	}
	p := &r.periods
	p.mu.Lock()
	// Copy-on-write keeps EmitPeriod's unlocked fan-out race-free.
	sinks := make([]func(PeriodRecord), 0, len(p.sinks)+1)
	sinks = append(sinks, p.sinks...)
	p.sinks = append(sinks, fn)
	p.mu.Unlock()
}

// SetPeriodCapacity bounds the retained per-period history (minimum 1).
// It must be called before the first EmitPeriod; later calls are ignored
// so the ring geometry never changes under a reader.
func (r *Registry) SetPeriodCapacity(n int) {
	if r == nil || n < 1 {
		return
	}
	p := &r.periods
	p.mu.Lock()
	if len(p.recs) == 0 && p.cap == 0 {
		p.cap = n
	}
	p.mu.Unlock()
}
