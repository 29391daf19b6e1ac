// Package testbed composes the RAN, edge-server, vision, and power-meter
// substrates into a simulated counterpart of the paper's prototype (§6.1):
// a vBS and UE pair (srsRAN + USRP B210 in hardware), a GPU edge server
// running the object-recognition service, and a digital power meter.
//
// The testbed implements core.Environment — EdgeBOL drives it exactly as it
// would drive the hardware — and additionally exposes Expected, a
// noise-free evaluation of the same model used by the exhaustive-search
// oracle of §6.3/§6.4.
package testbed

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/power"
	"repro/internal/ran"
	"repro/internal/telemetry"
	"repro/internal/vision"
)

// Config parameterizes the simulated prototype.
type Config struct {
	// Edge is the GPU server model.
	Edge edge.Config
	// Scene and Detector shape the synthetic MVA service.
	Scene    vision.SceneConfig
	Detector vision.DetectorConfig
	// ImagesPerMeasurement is the per-period mAP evaluation batch (the
	// prototype averaged 150 COCO images per data point).
	ImagesPerMeasurement int
	// BitsPerPixel is the encoded image size per delivered pixel.
	BitsPerPixel float64
	// FixedDelay covers user-side preprocessing plus downlink return of
	// boxes and labels, in seconds.
	FixedDelay float64
	// LoadFactor scales offered radio traffic beyond the service's own
	// (1 = nominal; 10 reproduces the Fig. 6 high-load scenario). The extra
	// load is background traffic carried at full PHY efficiency.
	LoadFactor float64
	// DelayNoiseFrac is the relative stddev of delay observations.
	DelayNoiseFrac float64
	// BSMeterNoiseW and ServerMeterNoiseW are per-sample power-meter noises.
	BSMeterNoiseW, ServerMeterNoiseW float64
	// MeterSamples is the per-reading averaging window of the meter.
	MeterSamples int
	// OracleImages is the batch size used to memoize the noise-free mAP
	// surface for Expected.
	OracleImages int
	// DetailedMAC switches uplink transmission delays from the closed-form
	// scheduler abstraction to the TTI-level MAC simulation (per-TTI
	// round-robin grants, duty-cycle token bucket, HARQ at MACBLER).
	DetailedMAC bool
	// MACBLER is the first-transmission block-error rate of the detailed
	// MAC (ignored otherwise); zero defaults to the srsRAN-typical 10 %.
	MACBLER float64
	// ShadowingStdDB adds per-period log-normal shadowing to every user's
	// SNR, making the context genuinely time-varying (used by dynamic
	// scenarios; zero disables).
	ShadowingStdDB float64
	// DeviceSlowdown is the device/edge compute-speed ratio of the
	// split-inference model (see split.go): executing a FLOPs fraction f
	// of the DNN on the device costs DeviceSlowdown · f times the
	// full-speed edge service time. Zero defaults to 6 — a mobile NPU
	// against a server GPU. Irrelevant while every control keeps
	// SplitLayer at 0 (the paper's original 4-D space).
	DeviceSlowdown float64
}

// DefaultConfig returns the calibrated simulated prototype.
func DefaultConfig() Config {
	return Config{
		Edge:                 edge.DefaultConfig(),
		Scene:                vision.DefaultSceneConfig(),
		Detector:             vision.DefaultDetectorConfig(),
		ImagesPerMeasurement: 150,
		BitsPerPixel:         2.1,
		FixedDelay:           0.04,
		LoadFactor:           1,
		DelayNoiseFrac:       0.04,
		BSMeterNoiseW:        0.35,
		ServerMeterNoiseW:    6,
		MeterSamples:         4,
		OracleImages:         2500,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Edge.Validate(); err != nil {
		return err
	}
	if err := c.Scene.Validate(); err != nil {
		return err
	}
	if err := c.Detector.Validate(); err != nil {
		return err
	}
	if c.ImagesPerMeasurement < 1 {
		return fmt.Errorf("testbed: ImagesPerMeasurement %d invalid", c.ImagesPerMeasurement)
	}
	if c.BitsPerPixel <= 0 {
		return fmt.Errorf("testbed: BitsPerPixel %v invalid", c.BitsPerPixel)
	}
	if c.FixedDelay < 0 {
		return fmt.Errorf("testbed: negative FixedDelay")
	}
	if c.LoadFactor < 1 {
		return fmt.Errorf("testbed: LoadFactor %v below 1", c.LoadFactor)
	}
	if c.DelayNoiseFrac < 0 || c.BSMeterNoiseW < 0 || c.ServerMeterNoiseW < 0 {
		return fmt.Errorf("testbed: negative noise parameter")
	}
	if c.MeterSamples < 1 {
		return fmt.Errorf("testbed: MeterSamples %d invalid", c.MeterSamples)
	}
	if c.OracleImages < 1 {
		return fmt.Errorf("testbed: OracleImages %d invalid", c.OracleImages)
	}
	if c.MACBLER < 0 || c.MACBLER >= 1 {
		return fmt.Errorf("testbed: MACBLER %v outside [0,1)", c.MACBLER)
	}
	if c.ShadowingStdDB < 0 {
		return fmt.Errorf("testbed: negative shadowing std")
	}
	if c.DeviceSlowdown < 0 {
		return fmt.Errorf("testbed: negative DeviceSlowdown")
	}
	return nil
}

// deviceSlowdown returns the resolved device/edge compute-speed ratio.
func (c Config) deviceSlowdown() float64 {
	if c.DeviceSlowdown == 0 {
		return 6
	}
	return c.DeviceSlowdown
}

// effectiveBLER returns the detailed-MAC block-error rate.
func (c Config) effectiveBLER() float64 {
	if c.MACBLER == 0 {
		return 0.1
	}
	return c.MACBLER
}

// Testbed is the simulated prototype. It is not safe for concurrent use.
type Testbed struct {
	cfg   Config
	users []ran.User
	// baseSNRs are the users' nominal SNRs; with shadowing enabled the
	// working SNRs are re-drawn around them every context observation.
	baseSNRs []float64

	rng         *rand.Rand
	bsMeter     *power.Meter
	serverMeter *power.Meter

	// mapMean memoizes the noise-free expected mAP per resolution (keyed by
	// resolution in milli-units): mAP depends only on the resolution policy.
	mapMean map[int]float64

	met testbedMetrics
}

// testbedMetrics mirrors the paper's dashboard view of the prototype: the
// latest measured KPIs as gauges plus a measurement counter. All handles
// are nil-safe no-ops when the testbed is uninstrumented.
type testbedMetrics struct {
	measures    *telemetry.Counter
	delay       *telemetry.Gauge
	gpuDelay    *telemetry.Gauge
	mAP         *telemetry.Gauge
	serverPower *telemetry.Gauge
	bsPower     *telemetry.Gauge
}

// New builds a testbed with the given users. seed drives all observation
// noise, making runs reproducible.
func New(cfg Config, users []ran.User, seed int64) (*Testbed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("testbed: at least one user required")
	}
	rng := rand.New(rand.NewSource(seed))
	bsMeter, err := power.NewMeter(cfg.BSMeterNoiseW, cfg.MeterSamples, rng)
	if err != nil {
		return nil, err
	}
	serverMeter, err := power.NewMeter(cfg.ServerMeterNoiseW, cfg.MeterSamples, rng)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{
		cfg:         cfg,
		users:       append([]ran.User(nil), users...),
		rng:         rng,
		bsMeter:     bsMeter,
		serverMeter: serverMeter,
		mapMean:     make(map[int]float64),
	}
	tb.rebaseSNRs()
	return tb, nil
}

// rebaseSNRs snapshots the current users' SNRs as the shadowing baseline.
func (tb *Testbed) rebaseSNRs() {
	tb.baseSNRs = tb.baseSNRs[:0]
	for _, u := range tb.users {
		tb.baseSNRs = append(tb.baseSNRs, u.SNRdB)
	}
}

// Config returns the testbed configuration.
func (tb *Testbed) Config() Config { return tb.cfg }

// Users returns a copy of the current user population.
func (tb *Testbed) Users() []ran.User { return append([]ran.User(nil), tb.users...) }

// SetSNR sets a single user with the given uplink SNR, the §6.2 static
// scenario.
func (tb *Testbed) SetSNR(snrDB float64) {
	tb.users = []ran.User{{SNRdB: snrDB}}
	tb.rebaseSNRs()
}

// Context implements core.Environment: the number of users and the mean and
// variance of their CQIs. With shadowing enabled, each observation re-draws
// the users' working SNRs around their baselines first.
func (tb *Testbed) Context() core.Context {
	if tb.cfg.ShadowingStdDB > 0 {
		for i := range tb.users {
			tb.users[i].SNRdB = tb.baseSNRs[i] + tb.rng.NormFloat64()*tb.cfg.ShadowingStdDB
		}
	}
	var sum, sumSq float64
	for _, u := range tb.users {
		c := float64(u.CQI())
		sum += c
		sumSq += c * c
	}
	n := float64(len(tb.users))
	mean := sum / n
	varCQI := sumSq/n - mean*mean
	if varCQI < 0 {
		varCQI = 0
	}
	return core.Context{NumUsers: len(tb.users), MeanCQI: mean, VarCQI: varCQI}
}

// Instrument publishes the testbed's per-period KPI readings into reg:
// edgebol_testbed_measures_total plus the edgebol_testbed_delay_seconds,
// edgebol_testbed_gpu_delay_seconds, edgebol_testbed_map,
// edgebol_testbed_server_power_watts, and edgebol_testbed_bs_power_watts
// gauges (the software counterparts of the prototype's power meter and
// KPI logs). A nil registry leaves the testbed uninstrumented.
func (tb *Testbed) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	tb.met = testbedMetrics{
		measures:    reg.Counter("edgebol_testbed_measures_total"),
		delay:       reg.Gauge("edgebol_testbed_delay_seconds"),
		gpuDelay:    reg.Gauge("edgebol_testbed_gpu_delay_seconds"),
		mAP:         reg.Gauge("edgebol_testbed_map"),
		serverPower: reg.Gauge("edgebol_testbed_server_power_watts"),
		bsPower:     reg.Gauge("edgebol_testbed_bs_power_watts"),
	}
}

// Measure implements core.Environment: it applies the control for one
// period and returns noisy KPI observations.
func (tb *Testbed) Measure(x core.Control) (core.KPIs, error) {
	k, err := tb.evaluateMode(x, true)
	if err != nil {
		return core.KPIs{}, err
	}
	// mAP from an actual finite-batch evaluation (sampling noise included).
	mAP, err := vision.EstimateMAP(x.Resolution, tb.cfg.ImagesPerMeasurement, tb.cfg.Scene, tb.cfg.Detector, tb.rng)
	if err != nil {
		return core.KPIs{}, err
	}
	k.MAP = mAP
	k.Delay *= 1 + tb.rng.NormFloat64()*tb.cfg.DelayNoiseFrac
	k.GPUDelay *= 1 + tb.rng.NormFloat64()*tb.cfg.DelayNoiseFrac
	k.BSPower = tb.bsMeter.Read(k.BSPower)
	k.ServerPower = tb.serverMeter.Read(k.ServerPower)
	tb.met.measures.Inc()
	tb.met.delay.Set(k.Delay)
	tb.met.gpuDelay.Set(k.GPUDelay)
	tb.met.mAP.Set(k.MAP)
	tb.met.serverPower.Set(k.ServerPower)
	tb.met.bsPower.Set(k.BSPower)
	return k, nil
}

// Expected returns the noise-free expected KPIs for a control, the surface
// searched exhaustively by the offline oracle.
func (tb *Testbed) Expected(x core.Control) (core.KPIs, error) {
	k, err := tb.evaluate(x)
	if err != nil {
		return core.KPIs{}, err
	}
	k.MAP = tb.expectedMAP(x.Resolution)
	return k, nil
}

// txDelays computes per-user uplink transmission delays, either from the
// closed-form scheduler abstraction or — in DetailedMAC mode — from the
// TTI-level simulation. The noise-free path approximates HARQ's expected
// airtime inflation analytically so Expected stays deterministic.
func (tb *Testbed) txDelays(allocs []ran.Allocation, pol ran.Policies, imageBits float64, noisy bool) ([]float64, error) {
	if !tb.cfg.DetailedMAC {
		tx := make([]float64, len(allocs))
		for i, a := range allocs {
			tx[i] = a.TxDelay(imageBits)
		}
		return tx, nil
	}
	bler := tb.cfg.effectiveBLER()
	if noisy {
		sim, err := ran.NewTTISim(bler, tb.rng)
		if err != nil {
			return nil, err
		}
		return sim.SimulateTransfers(tb.users, pol, imageBits)
	}
	sim, err := ran.NewTTISim(0, nil)
	if err != nil {
		return nil, err
	}
	tx, err := sim.SimulateTransfers(tb.users, pol, imageBits)
	if err != nil {
		return nil, err
	}
	for i := range tx {
		tx[i] /= 1 - bler // expected HARQ inflation
	}
	return tx, nil
}

// expectedMAP memoizes a large-batch, fixed-seed mAP estimate per
// resolution level.
func (tb *Testbed) expectedMAP(res float64) float64 {
	key := int(math.Round(res * 1000))
	if v, ok := tb.mapMean[key]; ok {
		return v
	}
	rng := rand.New(rand.NewSource(int64(key) + 7777))
	v, err := vision.EstimateMAP(res, tb.cfg.OracleImages, tb.cfg.Scene, tb.cfg.Detector, rng)
	if err != nil {
		// Resolution was validated by evaluate before reaching here.
		panic(fmt.Sprintf("testbed: expected mAP evaluation failed: %v", err))
	}
	tb.mapMean[key] = v
	return v
}

// evaluate runs the deterministic physics shared by Measure and Expected:
// scheduling, the closed-loop delay fixed point, GPU contention, and the
// two power models. The returned KPIs carry a zero MAP (filled by callers).
func (tb *Testbed) evaluate(x core.Control) (core.KPIs, error) {
	return tb.evaluateMode(x, false)
}

func (tb *Testbed) evaluateMode(x core.Control, noisy bool) (core.KPIs, error) {
	if err := x.Validate(); err != nil {
		return core.KPIs{}, err
	}
	pol := ran.Policies{Airtime: x.Airtime, MCSCap: x.MCSCap()}
	allocs, err := ran.Schedule(tb.users, pol)
	if err != nil {
		return core.KPIs{}, err
	}

	imageBits := tb.cfg.BitsPerPixel * vision.FullPixels * x.Resolution
	serviceTime := tb.cfg.Edge.ServiceTime(x.Resolution, x.GPUSpeed)

	// Split inference (split.go): the device executes a FLOPs fraction of
	// the DNN before uploading, which scales the uplink payload by the
	// activation profile, adds a serial device-compute stage, and leaves
	// only the suffix of the network on the edge GPU. At SplitLayer 0 the
	// three factors are exactly 1, 0, and 1 and every expression below is
	// bitwise identical to the 4-D model.
	actFrac := splitActFrac(x.SplitLayer)
	flopsFrac := splitFlopsFrac(x.SplitLayer)
	txBits := imageBits * actFrac
	deviceTime := tb.cfg.deviceSlowdown() * tb.cfg.Edge.ServiceTime(x.Resolution, 1) * flopsFrac
	edgeService := serviceTime * (1 - flopsFrac)

	// Closed-loop delays: each user keeps one image in flight
	// (D_i = fixed + device + tx_i + GPU wait + GPU service). The GPU
	// serves all users FCFS, so user i waits for work injected by the
	// others; the coupled delays are solved by fixed-point iteration.
	n := len(allocs)
	tx, err := tb.txDelays(allocs, pol, txBits, noisy)
	if err != nil {
		return core.KPIs{}, err
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = tb.cfg.FixedDelay + deviceTime + tx[i] + edgeService
	}
	pool := float64(tb.cfg.Edge.PoolSize())
	var maxWait float64
	for iter := 0; iter < 40; iter++ {
		maxWait = 0
		var changed float64
		for i := range d {
			var others float64
			for j := range d {
				if j != i {
					others += 1 / d[j]
				}
			}
			rho := edgeService * others / pool
			if rho > 0.95 {
				rho = 0.95
			}
			wait := edgeService * rho / (2 * pool * (1 - rho)) // M/D/c-style wait
			nd := tb.cfg.FixedDelay + deviceTime + tx[i] + edgeService + wait
			changed = math.Max(changed, math.Abs(nd-d[i]))
			d[i] = nd
			maxWait = math.Max(maxWait, wait)
		}
		if changed < 1e-9 {
			break
		}
	}

	// KPIs over users: worst delay, GPU-side delay, utilizations.
	var maxDelay, arrivalRate float64
	for i := range d {
		maxDelay = math.Max(maxDelay, d[i])
		arrivalRate += 1 / d[i]
	}
	gpuUtil := edgeService * arrivalRate / pool
	if gpuUtil > 0.95 {
		gpuUtil = 0.95
	}
	serverPower := tb.cfg.Edge.Power(x.GPUSpeed, gpuUtil)

	// Radio load: the service's own traffic inflated by the prototype's
	// application-layer overhead, plus efficient background load.
	var appRate, mcsSum float64
	for i, a := range allocs {
		appRate += txBits / d[i]
		mcsSum += float64(a.MCS)
	}
	onAir := appRate/ran.AppEfficiency + (tb.cfg.LoadFactor-1)*appRate
	meanMCS := mcsSum / float64(n)
	bsPower := ran.BSPower(onAir, meanMCS, pol)

	return core.KPIs{
		Delay:       maxDelay,
		GPUDelay:    edgeService + maxWait,
		ServerPower: serverPower,
		BSPower:     bsPower,
	}, nil
}
