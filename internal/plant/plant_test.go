package plant

import (
	"math"
	"math/rand"
	"testing"

	"crossroads/internal/geom"
	"crossroads/internal/kinematics"
)

func newPlant(t *testing.T, v0 float64, noise NoiseConfig, rng *rand.Rand) *Plant {
	t.Helper()
	path := geom.LinePath{Start: geom.V(0, 0), End: geom.V(100, 0)}
	p, err := New(path, kinematics.ScaleModelParams(), 0, v0, noise, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlantValidation(t *testing.T) {
	path := geom.LinePath{Start: geom.V(0, 0), End: geom.V(10, 0)}
	if _, err := New(path, kinematics.Params{}, 0, 0, NoNoise(), nil); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := New(nil, kinematics.ScaleModelParams(), 0, 0, NoNoise(), nil); err == nil {
		t.Error("nil path accepted")
	}
	if _, err := New(path, kinematics.ScaleModelParams(), 0, -1, NoNoise(), nil); err == nil {
		t.Error("negative speed accepted")
	}
}

func TestPlantHoldsSpeedNoiseless(t *testing.T) {
	p := newPlant(t, 2, NoNoise(), nil)
	for i := 0; i < 100; i++ {
		p.Step(2, 0.01)
	}
	if math.Abs(p.V()-2) > 1e-12 {
		t.Errorf("V = %v, want 2", p.V())
	}
	if math.Abs(p.S()-2) > 1e-9 {
		t.Errorf("S = %v, want 2", p.S())
	}
}

func TestPlantRateLimitsAcceleration(t *testing.T) {
	p := newPlant(t, 0, NoNoise(), nil)
	// Command max speed instantly: must ramp at MaxAccel (3 m/s^2).
	prev := 0.0
	for i := 0; i < 50; i++ {
		p.Step(3, 0.01)
		dv := p.V() - prev
		if dv > 3*0.01+1e-12 {
			t.Fatalf("accel step %v exceeds limit", dv/0.01)
		}
		prev = p.V()
	}
	if math.Abs(p.V()-1.5) > 1e-9 { // 0.5 s at 3 m/s^2
		t.Errorf("V after 0.5 s = %v, want 1.5", p.V())
	}
}

func TestPlantRateLimitsBraking(t *testing.T) {
	p := newPlant(t, 3, NoNoise(), nil)
	for i := 0; i < 50; i++ {
		p.Step(0, 0.01)
	}
	if math.Abs(p.V()-1.5) > 1e-9 {
		t.Errorf("V after 0.5 s braking = %v, want 1.5", p.V())
	}
	for i := 0; i < 100; i++ {
		p.Step(0, 0.01)
	}
	if p.V() != 0 {
		t.Errorf("V = %v, want 0", p.V())
	}
	// Total distance = 3^2/(2*3) = 1.5 m.
	if math.Abs(p.S()-1.5) > 1e-6 {
		t.Errorf("stopping distance = %v, want 1.5", p.S())
	}
}

func TestPlantSpeedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newPlant(t, 3, TestbedNoise(), rng)
	for i := 0; i < 2000; i++ {
		p.Step(99, 0.01) // over-commanded: clamps to MaxSpeed
		if p.V() > 3+1e-12 || p.V() < 0 {
			t.Fatalf("V = %v out of [0, 3]", p.V())
		}
	}
}

func TestPlantNoCreepWhenStopped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := newPlant(t, 0, TestbedNoise(), rng)
	for i := 0; i < 3000; i++ {
		p.Step(0, 0.01)
	}
	if p.S() > 0.001 {
		t.Errorf("stopped vehicle crept %v m", p.S())
	}
}

func TestPlantNoiseIsBoundedOffset(t *testing.T) {
	// The disturbance must act as a bounded velocity offset, never as an
	// integrating acceleration: command a constant speed and verify the
	// achieved speed stays within the bound of it.
	rng := rand.New(rand.NewSource(3))
	cfg := TestbedNoise()
	p := newPlant(t, 2, cfg, rng)
	for i := 0; i < 5000; i++ {
		p.Step(2, 0.01)
		if d := math.Abs(p.V() - 2); d > cfg.ActBound+1e-9 {
			t.Fatalf("speed deviation %v exceeds disturbance bound %v", d, cfg.ActBound)
		}
	}
}

func TestPlantZeroDtNoop(t *testing.T) {
	p := newPlant(t, 1, NoNoise(), nil)
	p.Step(3, 0)
	p.Step(3, -1)
	if p.S() != 0 || p.V() != 1 {
		t.Errorf("zero-dt step changed state: s=%v v=%v", p.S(), p.V())
	}
}

func TestPlantSensorsNoiseless(t *testing.T) {
	p := newPlant(t, 1.5, NoNoise(), nil)
	p.Step(1.5, 0.01)
	if p.MeasuredS() != p.S() || p.MeasuredV() != p.V() {
		t.Error("noiseless sensors differ from truth")
	}
}

func TestPlantSensorNoiseStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := TestbedNoise()
	p := newPlant(t, 1.5, cfg, rng)
	p.Step(1.5, 0.01)
	var sumErr, sumSq float64
	const n = 5000
	for i := 0; i < n; i++ {
		e := p.MeasuredS() - p.S()
		sumErr += e
		sumSq += e * e
	}
	mean := sumErr / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.001 {
		t.Errorf("sensor bias %v", mean)
	}
	if math.Abs(std-cfg.SensPosSigma) > 0.001 {
		t.Errorf("sensor std %v, want %v", std, cfg.SensPosSigma)
	}
	if p.MeasuredV() < 0 {
		t.Error("negative measured speed")
	}
}

func TestPlantPoseAndFootprints(t *testing.T) {
	p := newPlant(t, 2, NoNoise(), nil)
	for i := 0; i < 100; i++ {
		p.Step(2, 0.01)
	}
	pose := p.Pose()
	if !pose.Pos.ApproxEq(geom.V(2, 0), 1e-9) {
		t.Errorf("pose = %v", pose.Pos)
	}
	f := p.Footprint()
	if f.HalfL != 0.568/2 || f.HalfW != 0.296/2 {
		t.Errorf("footprint dims = %v x %v", f.HalfL*2, f.HalfW*2)
	}
	b := p.BufferedFootprint(0.078, 0.01)
	if math.Abs(b.HalfL-(0.568/2+0.078)) > 1e-12 {
		t.Errorf("buffered half length = %v", b.HalfL)
	}
	if !f.Intersects(b) {
		t.Error("buffered footprint must contain the body")
	}
}

// TestNoiseDraws pins which configurations draw from a plant's random
// source: each sigma alone does; the disturbance's rate and bound alone
// do not, as the disturbance only moves when ActSigma is positive.
func TestNoiseDraws(t *testing.T) {
	for _, tc := range []struct {
		name  string
		noise NoiseConfig
		want  bool
	}{
		{"none", NoNoise(), false},
		{"testbed", TestbedNoise(), true},
		{"actuation", NoiseConfig{ActSigma: 0.08}, true},
		{"position sensor", NoiseConfig{SensPosSigma: 0.003}, true},
		{"speed sensor", NoiseConfig{SensVelSigma: 0.02}, true},
		{"rate and bound only", NoiseConfig{ActTheta: 2, ActBound: 0.1}, false},
	} {
		if got := tc.noise.Draws(); got != tc.want {
			t.Errorf("%s: Draws() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
