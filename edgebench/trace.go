package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed call across a layer boundary. Spans of one control
// period share its period id; parent is the index of the enclosing span in
// the trace, -1 for a period's root span.
type span struct {
	Name   string `json:"name"`
	Period int    `json:"period"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Calls nest strictly —
// an oran client blocks while the server goroutine measures the testbed —
// so the open span is the parent of the next one. A nil tracer records
// nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	period int
	open   int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: -1} }

// begin opens a span under the currently open one and returns its index
// and start time.
func (t *tracer) begin(name string) (int, int64) {
	if t == nil {
		return -1, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Period: t.period, Parent: t.open, Start: now})
	t.open = len(t.spans) - 1
	return t.open, now
}

// end closes span i, reopens its parent and returns the end time.
func (t *tracer) end(i int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.origin).Nanoseconds()
	t.spans[i].End = now
	t.open = t.spans[i].Parent
	return now
}

// add records an already timed span under parent.
func (t *tracer) add(name string, parent int, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Period: t.period, Parent: parent, Start: start, End: end})
}

// setPeriod sets the period id of the spans that follow.
func (t *tracer) setPeriod(p int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.period = p
	t.mu.Unlock()
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // already failing
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // already failing
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfTimes returns, for every period id, the self time of each span name
// in nanoseconds: the span's duration minus that of its children.
func selfTimes(spans []span) map[int]map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]int64{}
	for i, s := range spans {
		m := out[s.Period]
		if m == nil {
			m = map[string]int64{}
			out[s.Period] = m
		}
		m[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// probe times the calls into one layer's environment and remembers the
// last context it returned. It forwards every call unchanged.
type probe struct {
	env               core.Environment
	tr                *tracer
	ctxName, measName string
	last              core.Context
	// ctxEnd and measStart bound the gap between the two calls, in which
	// StepCtx runs SelectControl; set only while tracing.
	ctxEnd, measStart int64
}

func newProbe(env core.Environment, tr *tracer, ctxName, measName string) *probe {
	return &probe{env: env, tr: tr, ctxName: ctxName, measName: measName}
}

// wrapped returns the probe as an environment implementing exactly the
// interfaces the probed environment implements.
func (p *probe) wrapped() core.Environment {
	if ce, ok := p.env.(core.ContextEnvironment); ok {
		return ctxProbe{p, ce}
	}
	return p
}

func (p *probe) Context() core.Context {
	s, _ := p.tr.begin(p.ctxName)
	p.last = p.env.Context()
	p.ctxEnd = p.tr.end(s)
	return p.last
}

func (p *probe) Measure(x core.Control) (core.KPIs, error) {
	var s int
	s, p.measStart = p.tr.begin(p.measName)
	k, err := p.env.Measure(x)
	p.tr.end(s)
	return k, err
}

// ctxProbe is a probe around a core.ContextEnvironment.
type ctxProbe struct {
	*probe
	ce core.ContextEnvironment
}

func (p ctxProbe) MeasureCtx(ctx context.Context, x core.Control) (core.KPIs, error) {
	var s int
	s, p.measStart = p.tr.begin(p.measName)
	k, err := p.ce.MeasureCtx(ctx, x)
	p.tr.end(s)
	return k, err
}
