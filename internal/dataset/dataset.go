// Package dataset records and replays measurement campaigns, mirroring the
// measurement dataset the paper's authors published alongside §3
// (github.com/jaayala/energy_edge_AI_dataset): every record is one
// measured (context, control) → KPIs sample.
//
// A recorded dataset serves two purposes: it is an exportable artifact for
// external analysis, and — through ReplayEnvironment — an offline
// core.Environment that serves recorded measurements back to a learning
// agent, so algorithm work can proceed without the (simulated or real)
// testbed in the loop.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
)

// Record is one measurement: the §3 campaign's unit of data.
type Record struct {
	// Context at measurement time.
	NumUsers int     `json:"numUsers"`
	MeanCQI  float64 `json:"meanCqi"`
	VarCQI   float64 `json:"varCqi"`
	// Control applied.
	Resolution float64 `json:"resolution"`
	Airtime    float64 `json:"airtime"`
	GPUSpeed   float64 `json:"gpuSpeed"`
	MCS        float64 `json:"mcs"`
	// SplitLayer is omitted at 0 (all-edge inference), so records of grids
	// without a split dimension serialize as they did before it existed.
	SplitLayer float64 `json:"splitLayer,omitempty"`
	// Observed KPIs.
	DelaySeconds float64 `json:"delaySeconds"`
	GPUDelay     float64 `json:"gpuDelaySeconds"`
	MAP          float64 `json:"map"`
	ServerPowerW float64 `json:"serverPowerW"`
	BSPowerW     float64 `json:"bsPowerW"`
}

// FromSample builds a record from core types.
func FromSample(ctx core.Context, x core.Control, k core.KPIs) Record {
	return Record{
		NumUsers: ctx.NumUsers, MeanCQI: ctx.MeanCQI, VarCQI: ctx.VarCQI,
		Resolution: x.Resolution, Airtime: x.Airtime, GPUSpeed: x.GPUSpeed, MCS: x.MCS, SplitLayer: x.SplitLayer,
		DelaySeconds: k.Delay, GPUDelay: k.GPUDelay, MAP: k.MAP,
		ServerPowerW: k.ServerPower, BSPowerW: k.BSPower,
	}
}

// Context returns the record's context.
func (r Record) Context() core.Context {
	return core.Context{NumUsers: r.NumUsers, MeanCQI: r.MeanCQI, VarCQI: r.VarCQI}
}

// Control returns the record's control.
func (r Record) Control() core.Control {
	//edgebol:allow safectrl -- deserialization boundary: records replay controls captured from a grid-driven run, never synthesize new ones
	return core.Control{Resolution: r.Resolution, Airtime: r.Airtime, GPUSpeed: r.GPUSpeed, MCS: r.MCS, SplitLayer: r.SplitLayer}
}

// KPIs returns the record's observations.
func (r Record) KPIs() core.KPIs {
	return core.KPIs{
		Delay: r.DelaySeconds, GPUDelay: r.GPUDelay, MAP: r.MAP,
		ServerPower: r.ServerPowerW, BSPower: r.BSPowerW,
	}
}

// Dataset is an in-memory measurement campaign.
type Dataset struct {
	Records []Record
}

// Collect runs a measurement campaign against an environment: repetitions
// over every control in the grid, as in §3 (where every dot averages a
// batch of images and multiple controls are swept exhaustively).
func Collect(env core.Environment, grid core.GridSpec, repetitions int) (*Dataset, error) {
	if env == nil {
		return nil, fmt.Errorf("dataset: nil environment")
	}
	if repetitions < 1 {
		return nil, fmt.Errorf("dataset: repetitions %d invalid", repetitions)
	}
	ctls, err := grid.Enumerate()
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Records: make([]Record, 0, len(ctls)*repetitions)}
	for rep := 0; rep < repetitions; rep++ {
		for _, x := range ctls {
			ctx := env.Context()
			k, err := env.Measure(x)
			if err != nil {
				return nil, fmt.Errorf("dataset: measuring %+v: %w", x, err)
			}
			ds.Records = append(ds.Records, FromSample(ctx, x, k))
		}
	}
	return ds, nil
}

// Write serializes the dataset as JSON Lines.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range d.Records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("dataset: record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSON Lines dataset.
func Read(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	dec := json.NewDecoder(r)
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("dataset: record %d: %w", len(ds.Records), err)
		}
		if err := rec.Control().Validate(); err != nil {
			return nil, fmt.Errorf("dataset: record %d: %w", len(ds.Records), err)
		}
		ds.Records = append(ds.Records, rec)
	}
	if len(ds.Records) == 0 {
		return nil, fmt.Errorf("dataset: empty dataset")
	}
	return ds, nil
}

// ReplayEnvironment serves recorded measurements as a core.Environment: a
// Measure returns a uniformly sampled record among those nearest (in
// normalized control space) to the requested control, so learning
// algorithms can run offline against the published data.
type ReplayEnvironment struct {
	ds  *Dataset
	rng *rand.Rand
	// byControl groups record indices by rounded control key.
	byControl map[[5]int16][]int
	keys      [][5]int16
}

// NewReplayEnvironment builds a replay environment. rng is required.
func NewReplayEnvironment(ds *Dataset, rng *rand.Rand) (*ReplayEnvironment, error) {
	if ds == nil || len(ds.Records) == 0 {
		return nil, fmt.Errorf("dataset: empty dataset")
	}
	if rng == nil {
		return nil, fmt.Errorf("dataset: rand source required")
	}
	env := &ReplayEnvironment{ds: ds, rng: rng, byControl: make(map[[5]int16][]int)}
	for i, r := range ds.Records {
		k := controlKey(r.Control())
		if _, seen := env.byControl[k]; !seen {
			env.keys = append(env.keys, k)
		}
		env.byControl[k] = append(env.byControl[k], i)
	}
	return env, nil
}

// controlKey quantizes a control to merge float noise across records.
func controlKey(x core.Control) [5]int16 {
	q := func(v float64) int16 { return int16(math.Round(v * 1000)) }
	return [5]int16{q(x.Resolution), q(x.Airtime), q(x.GPUSpeed), q(x.MCS), q(x.SplitLayer)}
}

// Context implements core.Environment: the context of a random record
// (campaign datasets are usually single-context).
func (e *ReplayEnvironment) Context() core.Context {
	return e.ds.Records[e.rng.Intn(len(e.ds.Records))].Context()
}

// Measure implements core.Environment: a random record among those closest
// to the requested control.
func (e *ReplayEnvironment) Measure(x core.Control) (core.KPIs, error) {
	if err := x.Validate(); err != nil {
		return core.KPIs{}, err
	}
	key := controlKey(x)
	if idxs, ok := e.byControl[key]; ok {
		return e.ds.Records[idxs[e.rng.Intn(len(idxs))]].KPIs(), nil
	}
	// Nearest recorded control by L2 over the quantized key.
	best := e.keys[0]
	bestDist := math.Inf(1)
	for _, k := range e.keys {
		var d float64
		for i := range k {
			diff := float64(k[i] - key[i])
			d += diff * diff
		}
		if d < bestDist {
			bestDist = d
			best = k
		}
	}
	idxs := e.byControl[best]
	return e.ds.Records[idxs[e.rng.Intn(len(idxs))]].KPIs(), nil
}

var _ core.Environment = (*ReplayEnvironment)(nil)
