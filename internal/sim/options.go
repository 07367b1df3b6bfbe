package sim

import (
	"crossroads/internal/fault"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/network"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
)

// Option mutates a Config under construction. Options compose left to
// right; later options win on conflicting fields.
type Option func(*Config)

// NewConfig builds a validated Config from options, so contradictions
// surface at construction rather than inside the run. WithPolicy is
// required; the zero value of every other unset knob keeps its documented
// default (scale-model geometry, testbed spec, cost and delay models, and
// so on).
func NewConfig(opts ...Option) (Config, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// WithPolicy names the registered IM policy under test.
func WithPolicy(name string) Option { return func(c *Config) { c.Policy = name } }

// WithSeed sets the seed driving every stochastic component.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithIntersection sets the intersection geometry used by every node.
func WithIntersection(ic intersection.Config) Option {
	return func(c *Config) { c.Intersection = ic }
}

// WithTopology sets the road network; nil means a single intersection.
func WithTopology(t *topology.Topology) Option { return func(c *Config) { c.Topology = t } }

// WithSpec sets the uncertainty bounds (buffers, WC-RTD).
func WithSpec(s safety.Spec) Option { return func(c *Config) { c.Spec = s } }

// WithCost sets the IM computation-cost model.
func WithCost(cm im.CostModel) Option { return func(c *Config) { c.Cost = cm } }

// WithDelay sets the network latency model.
func WithDelay(d network.DelayModel) Option { return func(c *Config) { c.Delay = d } }

// WithLossProb sets the i.i.d. message-loss probability.
func WithLossProb(p float64) Option { return func(c *Config) { c.LossProb = p } }

// WithFaults scripts fault windows onto the run.
func WithFaults(f *fault.Schedule) Option { return func(c *Config) { c.Faults = f } }

// WithNoise configures the plant disturbance model.
func WithNoise(n plant.NoiseConfig) Option { return func(c *Config) { c.Noise = n } }

// WithPhysicsDt sets the plant integration step in seconds.
func WithPhysicsDt(dt float64) Option { return func(c *Config) { c.PhysicsDt = dt } }

// WithMaxSimTime caps the run's simulated duration.
func WithMaxSimTime(t float64) Option { return func(c *Config) { c.MaxSimTime = t } }

// WithClockError bounds the vehicles' raw clock offset (s) and drift (ppm)
// before NTP sync.
func WithClockError(maxOffset, maxDriftPPM float64) Option {
	return func(c *Config) {
		c.ClockMaxOffset = maxOffset
		c.ClockMaxDriftPPM = maxDriftPPM
	}
}

// WithOmitRTDBuffer runs VT-IM without its RTD buffer — the UNSAFE
// ablation.
func WithOmitRTDBuffer() Option { return func(c *Config) { c.OmitRTDBuffer = true } }

// WithPolicyParams sets generic per-policy tuning as namespaced
// "<policy>.<knob>" keys (e.g. "dot.grid", "signalized.green"). Keys under
// other policies' namespaces are ignored by the running policy, so one map
// can serve a whole sweep; an unknown knob under the running policy's
// namespace fails construction with an error naming the policy.
func WithPolicyParams(params map[string]string) Option {
	return func(c *Config) { c.PolicyParams = params }
}

// WithObserver attaches a per-tick vehicle snapshot callback, invoked
// every `every` physics ticks (0 means the default cadence).
func WithObserver(fn func(now float64, vehicles []VehicleView), every int) Option {
	return func(c *Config) {
		c.Observer = fn
		c.ObserverEvery = every
	}
}

// WithCoordination arms the IM↔IM coordination plane (link-state digests,
// downstream backpressure, green-wave offsets) with the given digest
// period; period 0 uses the default.
func WithCoordination(period float64) Option {
	return func(c *Config) {
		c.Coord = true
		c.CoordPeriod = period
	}
}

// WithTrace attaches a structured-event recorder to the run.
func WithTrace(rec *trace.Recorder) Option { return func(c *Config) { c.Trace = rec } }

// WithDESTrace additionally traces every executed kernel event. Requires
// WithTrace.
func WithDESTrace() Option { return func(c *Config) { c.TraceDES = true } }
