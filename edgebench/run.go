package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// warmSetUps is the number of set-ups a run times before its first
// episode; setup_s is the median over these and every episode's own.
const warmSetUps = 4

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// dir receives the run's checkpoint directory, removed when it ends.
	dir string
}

// period is the outcome of one timed control period.
type period struct {
	id       int           // period id in the trace
	dur      time.Duration // StepCtx plus the checkpoint tick
	failed   bool
	cost     float64
	violated bool
	info     core.SelectionInfo
	saved    bool
	tickDur  time.Duration
}

// episode is one set-up plus its timed periods.
type episode struct {
	sub        int // which of the workload's episode seeds it ran
	traced     bool
	setup      time.Duration
	periods    []period
	wall       time.Duration // the timed loop, bookkeeping included
	allocBytes uint64
	peakHeap   uint64
	cpu        time.Duration
	digest     uint64
	costSum    float64
	basis      [2]int // GP working-set size before the first and after the last period
	failures   int
	counters   map[string]uint64
	gpSweepSec float64
	ckptBytes  float64
}

// result is everything one run measured.
type result struct {
	w         workload
	eps       []*episode
	setups    []float64 // seconds
	tracer    *tracer
	attempted int
	failed    int
	failures  []string
	digest    uint64
}

func run(w workload, cfg runConfig) (*result, error) {
	ckptDir, err := os.MkdirTemp(cfg.dir, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	res := &result{w: w}
	if cfg.traced {
		res.tracer = newTracer()
	}
	for i := 0; i < warmSetUps; i++ {
		start := time.Now()
		r, err := setUp(w, cfg.seed, nil, ckptDir)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
		if err := r.close(); err != nil {
			return nil, err
		}
	}
	// An untraced run cycles through w.seeds episode seeds in whole rounds.
	// A traced run alternates untraced and traced episodes of the first
	// one; one of each is enough, as per-layer metrics need no p95.
	round, minEpisodes := w.seeds, w.minEpisodes
	if cfg.traced {
		round, minEpisodes = 2, 2
	}
	start := time.Now()
	for i := 0; i < minEpisodes || i%round != 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		var tr *tracer
		sub := i % w.seeds
		if cfg.traced {
			sub = 0
			if i%2 == 1 {
				tr = res.tracer
			}
		}
		ep, err := runEpisode(w, episodeSeed(cfg.seed, sub), tr, ckptDir, i*w.episode)
		if err != nil {
			return nil, err
		}
		ep.sub = sub
		res.eps = append(res.eps, ep)
		res.setups = append(res.setups, ep.setup.Seconds())
	}
	res.check()
	return res, nil
}

// episodeSeed derives the seed of a run's sub-th episode seed.
func episodeSeed(seed int64, sub int) int64 { return seed + int64(sub)*1_000_003 }

// runEpisode sets the workload up and times w.episode control periods.
// Period ids start at firstID, so ids are unique across a traced run.
func runEpisode(w workload, seed int64, tr *tracer, ckptDir string, firstID int) (*episode, error) {
	ep := &episode{traced: tr != nil, periods: make([]period, w.episode)}
	// The heap the run already holds (earlier episodes' records) is not
	// the rig's: peak_heap_mb counts only what this set-up adds.
	base := retainedHeap()
	setupStart := time.Now()
	r, err := setUp(w, seed, tr, ckptDir)
	if err != nil {
		return nil, err
	}
	ep.setup = time.Since(setupStart)
	ep.basis[0] = gpBasis(r.agent)
	before := r.reg.Snapshot()
	h := fnv.New64a()
	ctx := context.Background()
	ep.peakHeap = retainedHeap() - base
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	allocs0 := allocs[0].Value.Uint64()
	cpu0 := cpuTime()
	loopStart := time.Now()
	for i := range ep.periods {
		p := &ep.periods[i]
		p.id = firstID + i
		tr.setPeriod(p.id)
		root, _ := tr.begin("period")
		t0 := time.Now()
		step, _ := tr.begin("core.step")
		x, k, info, stepErr := r.agent.StepCtx(ctx, r.env)
		tr.end(step)
		t1 := time.Now()
		tick, _ := tr.begin("checkpoint.tick")
		path, tickErr := r.ckpt.Tick(r.agent)
		tr.end(tick)
		t2 := time.Now()
		tr.end(root)
		tr.add("core.select", step, r.outer.ctxEnd, r.outer.measStart)

		p.dur, p.tickDur, p.info, p.saved = t2.Sub(t0), t2.Sub(t1), info, path != ""
		p.cost = w.weights.Cost(k)
		p.violated = !w.cons.Satisfied(k)
		ix := w.grid.Index(x)
		h.Write([]byte{byte(ix), byte(ix >> 8), byte(ix >> 16), byte(ix >> 24)})
		ep.costSum += p.cost
		switch {
		case stepErr != nil:
			p.failed = true
			ep.fail(fmt.Sprintf("period %d: StepCtx: %v", i, stepErr))
		case tickErr != nil:
			p.failed = true
			ep.fail(fmt.Sprintf("period %d: checkpoint tick: %v", i, tickErr))
		case r.outer.last == core.Context{}:
			p.failed = true
			ep.fail(fmt.Sprintf("period %d: zero context from the environment", i))
		case !finite(k):
			p.failed = true
			ep.fail(fmt.Sprintf("period %d: non-finite KPIs %+v", i, k))
		case w.grid.At(ix) != x:
			p.failed = true
			ep.fail(fmt.Sprintf("period %d: control %+v is off the grid", i, x))
		}
	}
	ep.wall = time.Since(loopStart)
	ep.cpu = cpuTime() - cpu0
	metrics.Read(allocs)
	ep.allocBytes = allocs[0].Value.Uint64() - allocs0
	ep.peakHeap = max(ep.peakHeap, retainedHeap()-base)
	ep.basis[1] = gpBasis(r.agent)
	ep.digest = h.Sum64()
	ep.counters, ep.gpSweepSec, ep.ckptBytes = registryDeltas(before, r.reg.Snapshot())
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("close %s rig: %w", w.name, err)
	}
	return ep, nil
}

// fail counts a failed period and reports the first few on stderr.
func (ep *episode) fail(msg string) {
	if ep.failures < 5 {
		fmt.Fprintln(os.Stderr, "edgebench:", msg)
	}
	ep.failures++
}

func finite(k core.KPIs) bool {
	for _, v := range []float64{k.Delay, k.GPUDelay, k.MAP, k.ServerPower, k.BSPower} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// retainedHeap runs a full collection and returns the live heap bytes.
// Outside the timed loop it also gives every episode the same clean start.
func retainedHeap() uint64 {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return live[0].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// registryDeltas extracts what the per-layer metrics read from the
// registry between two snapshots: the O-RAN client counters summed over
// interfaces, the GP sweep seconds summed over objectives, and the last
// checkpoint size.
func registryDeltas(a, b telemetry.Snapshot) (map[string]uint64, float64, float64) {
	counters := map[string]uint64{}
	for key, v := range b.Counters {
		for _, fam := range []string{"edgebol_oran_requests_total", "edgebol_oran_request_errors_total", "edgebol_oran_reconnects_total"} {
			if strings.HasPrefix(key, fam+"{") {
				counters[fam] += v - a.Counters[key]
			}
		}
	}
	var sweep float64
	for key, h := range b.Histograms {
		if strings.HasPrefix(key, "edgebol_gp_sweep_seconds{") {
			sweep += h.Sum - a.Histograms[key].Sum
		}
	}
	return counters, sweep, b.Gauges["edgebol_oran_ckpt_bytes"]
}

// check runs the per-run checks and counts attempted and failed periods.
func (res *result) check() {
	first := map[int]*episode{}
	for i, ep := range res.eps {
		res.attempted += len(ep.periods)
		for _, p := range ep.periods {
			if p.failed {
				res.failed++
			}
		}
		if n := ep.failures; n > 0 {
			res.failures = append(res.failures, fmt.Sprintf("episode %d: %d failed periods", i, n))
		}
		if ep.basis[0] != ep.basis[1] {
			res.failures = append(res.failures, fmt.Sprintf(
				"episode %d: GP working set %d at the first timed period, %d after the last", i, ep.basis[0], ep.basis[1]))
		}
		ref, ok := first[ep.sub]
		if !ok {
			first[ep.sub] = ep
			continue
		}
		if ep.digest != ref.digest || ep.costSum != ref.costSum {
			res.failures = append(res.failures, fmt.Sprintf(
				"episode %d chose other controls than the first episode from the same seed", i))
		}
	}
	// The run's digest covers one episode per episode seed, so runs of any
	// length from the same seed print the same digest.
	h := fnv.New64a()
	for sub := 0; sub < res.w.seeds; sub++ {
		if ep, ok := first[sub]; ok {
			fmt.Fprintf(h, "%016x", ep.digest)
		}
	}
	res.digest = h.Sum64()
	if lim := res.w.maxViolationPct; lim > 0 {
		// The timed periods are a sample of the agent's behaviour: the
		// check fails only when their violations put the rate above the
		// bound at 99% confidence, not whenever noise lifts the count past
		// it.
		k, n := violations(firstRound(res.episodesOf(false)))
		if p := binomialTail(n, k, lim/100); p < 0.01 {
			res.failures = append(res.failures, fmt.Sprintf(
				"%d of %d periods broke a constraint: above the %.0f%% tail bound at 99%% confidence (p = %.4f)", k, n, lim, p))
		}
	}
}

// violations counts the episodes' periods and those that broke a
// constraint.
func violations(eps []*episode) (broke, n int) {
	for _, ep := range eps {
		for _, p := range ep.periods {
			n++
			if p.violated {
				broke++
			}
		}
	}
	return broke, n
}

// violationPct is the share of the episodes' periods that broke a
// constraint.
func violationPct(eps []*episode) float64 {
	broke, n := violations(eps)
	return 100 * float64(broke) / float64(n)
}

// binomialTail is P(X >= k) for X ~ Binomial(n, p), 0 < p < 1.
func binomialTail(n, k int, p float64) float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for i := k; i <= n; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgR, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgI - lgR + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return sum
}

// episodesOf returns the traced or the untraced episodes of the run.
func (res *result) episodesOf(traced bool) []*episode {
	var out []*episode
	for _, ep := range res.eps {
		if ep.traced == traced {
			out = append(out, ep)
		}
	}
	return out
}

// firstRound returns the first episode of each episode seed in eps.
func firstRound(eps []*episode) []*episode {
	seen := map[int]bool{}
	var out []*episode
	for _, ep := range eps {
		if !seen[ep.sub] {
			seen[ep.sub] = true
			out = append(out, ep)
		}
	}
	return out
}

// periodMS returns the period durations of eps in milliseconds. Failed
// periods count as beyond every percentile: they take the largest value.
func periodMS(eps []*episode) []float64 {
	var out []float64
	worst := 0.0
	var failed int
	for _, ep := range eps {
		for _, p := range ep.periods {
			ms := float64(p.dur) / 1e6
			worst = max(worst, ms)
			if p.failed {
				failed++
				continue
			}
			out = append(out, ms)
		}
	}
	for i := 0; i < failed; i++ {
		out = append(out, worst)
	}
	return out
}

// endToEnd computes the metrics a user of the controller sees, from the
// untraced episodes.
func (res *result) endToEnd() map[string]metric {
	eps := res.episodesOf(false)
	durs := periodMS(eps)
	var n int
	var wall time.Duration
	var alloc, peak uint64
	for _, ep := range eps {
		n += len(ep.periods)
		wall += ep.wall
		alloc += ep.allocBytes
		peak = max(peak, ep.peakHeap)
	}
	// Outcomes come from the first round: one episode per episode seed, so
	// they repeat exactly for a seed whatever the run's length.
	round := firstRound(eps)
	var cost float64
	var m int
	for _, ep := range round {
		cost += ep.costSum
		m += len(ep.periods)
	}
	violated := violationPct(round)
	return map[string]metric{
		"period_p50_ms":       {percentile(durs, 50), "ms"},
		"period_p95_ms":       {percentile(durs, 95), "ms"},
		"periods_per_s":       {float64(n) / wall.Seconds(), "1/s"},
		"setup_s":             {median(append([]float64(nil), res.setups...)), "s"},
		"alloc_kb_per_period": {float64(alloc) / float64(n) / 1024, "KiB"},
		"peak_heap_mb":        {float64(peak) / (1 << 20), "MiB"},
		"cost_mean":           {cost / float64(m), "mu"},
		"constraints_met_pct": {100 - violated, "%"},
	}
}

// perLayer computes the per-layer metrics of a traced run: self times from
// the spans of the traced episodes, counts from the selection diagnostics
// and the registry, and the tracing overhead against the untraced episodes.
//
// A layer's time metric is its mean self time over the median periods —
// the traced periods whose span lies between the 40th and the 60th
// percentile — so the layers add up to the span p50 (trace.self_sum_pct).
func (res *result) perLayer() map[string]metric {
	traced, plain := res.episodesOf(true), res.episodesOf(false)
	self := selfTimes(res.tracer.spans)
	var all []period
	var counters = map[string]uint64{}
	var sweepSec, ckptBytes float64
	for _, ep := range traced {
		all = append(all, ep.periods...)
		for k, v := range ep.counters {
			counters[k] += v
		}
		sweepSec += ep.gpSweepSec
		ckptBytes = max(ckptBytes, ep.ckptBytes)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var cand, refine, safeShare, fromSeed, observeMax float64
	var saves []float64
	for _, p := range all {
		cand += float64(p.info.CandidatesEvaluated)
		refine += float64(p.info.RefineRounds)
		if p.info.CandidatesEvaluated > 0 {
			safeShare += float64(p.info.SafeSetSize) / float64(p.info.CandidatesEvaluated)
		}
		if p.info.FromSeed {
			fromSeed++
		}
		if p.saved {
			saves = append(saves, float64(p.tickDur)/1e6)
		}
		observeMax = max(observeMax, ms(self[p.id]["core.step"]))
	}
	// The band is taken by the period span, whose self times are what the
	// layers divide, so a hiccup between the span and the period timer
	// cannot skew the sum.
	spanMS := func(p period) float64 {
		var ns int64
		for _, v := range self[p.id] {
			ns += v
		}
		return ms(ns)
	}
	byDur := append([]period(nil), all...)
	sort.Slice(byDur, func(i, j int) bool { return spanMS(byDur[i]) < spanMS(byDur[j]) })
	spans := make([]float64, len(byDur))
	for i, p := range byDur {
		spans[i] = spanMS(p)
	}
	lo := len(byDur) * 2 / 5
	band := byDur[lo:max(len(byDur)*3/5, lo+1)]
	layer := map[string]float64{}
	for _, p := range band {
		m := self[p.id]
		layer["core.select"] += p.info.SweepSeconds * 1e3
		layer["core.observe"] += ms(m["core.step"])
		layer["testbed.context"] += ms(m["testbed.context"])
		layer["testbed.measure"] += ms(m["testbed.measure"])
		layer["oran.transport"] += ms(m["env.context"] + m["env.measure"])
		layer["checkpoint.tick"] += ms(m["checkpoint.tick"])
		layer["bench"] += ms(m["period"])
	}
	var selfSum float64
	for k := range layer {
		layer[k] /= float64(len(band))
		selfSum += layer[k]
	}
	saveMS := layer["checkpoint.tick"] // no tick saved: paper and biggrid
	if len(saves) > 0 {
		saveMS = median(saves)
	}
	tracedP50 := percentile(periodMS(traced), 50)
	plainP50 := percentile(periodMS(plain), 50)
	var cpu, wall time.Duration
	var plainN int
	for _, ep := range plain {
		cpu += ep.cpu
		wall += ep.wall
		plainN += len(ep.periods)
	}
	n := float64(len(all))
	violated := violationPct(traced)
	return map[string]metric{
		"core.select_ms":            {layer["core.select"], "ms"},
		"core.observe_ms":           {layer["core.observe"], "ms"},
		"core.observe_max_ms":       {observeMax, "ms"},
		"core.candidates":           {cand / n, "count"},
		"core.refine_rounds":        {refine / n, "count"},
		"core.safe_share":           {safeShare / n, "ratio"},
		"core.seed_fallback_pct":    {100 * fromSeed / n, "%"},
		"violation_pct":             {violated, "%"},
		"gp.sweep_ms":               {sweepSec * 1e3 / n, "ms"},
		"gp.basis":                  {float64(traced[len(traced)-1].basis[1]), "count"},
		"testbed.measure_ms":        {layer["testbed.measure"], "ms"},
		"testbed.context_ms":        {layer["testbed.context"], "ms"},
		"oran.transport_ms":         {layer["oran.transport"], "ms"},
		"oran.requests_per_period":  {float64(counters["edgebol_oran_requests_total"]) / n, "count"},
		"oran.request_errors":       {float64(counters["edgebol_oran_request_errors_total"]), "count"},
		"oran.reconnects":           {float64(counters["edgebol_oran_reconnects_total"]), "count"},
		"checkpoint.save_ms":        {saveMS, "ms"},
		"checkpoint.kb":             {ckptBytes / 1024, "KiB"},
		"runtime.cpu_ms_per_period": {float64(cpu) / 1e6 / float64(plainN), "ms"},
		"runtime.cpu_per_wall":      {cpu.Seconds() / wall.Seconds(), "ratio"},
		"trace.overhead_pct":        {100 * (tracedP50 - plainP50) / plainP50, "%"},
		"trace.self_sum_pct":        {100 * selfSum / percentile(spans, 50), "%"},
		"trace.period_p50_ms":       {tracedP50, "ms"},
	}
}
