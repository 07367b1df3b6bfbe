package kinematics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refEarliestArrival and refDipArrival are EarliestArrival and dipArrival
// as they were before earliestTiming: the profile is built on every call,
// and dipArrival discards it. The tests below pin the allocation-free path
// to their answers bit for bit.
func refEarliestArrival(startTime, dist, vInit float64, p Params) (eta, vArr float64, prof Profile) {
	if dist <= 0 {
		return 0, vInit, HoldProfile(startTime, vInit, 0)
	}
	vInit = math.Min(vInit, p.MaxSpeed)
	tAcc := (p.MaxSpeed - vInit) / p.MaxAccel
	deltaX := 0.5*p.MaxAccel*tAcc*tAcc + vInit*tAcc
	if deltaX >= dist {
		t := (-vInit + math.Sqrt(vInit*vInit+2*p.MaxAccel*dist)) / p.MaxAccel
		vArr = vInit + p.MaxAccel*t
		prof = NewProfile(startTime, Phase{Duration: t, V0: vInit, Accel: p.MaxAccel})
		return t, vArr, prof
	}
	cruise := (dist - deltaX) / p.MaxSpeed
	eta = tAcc + cruise
	prof = NewProfile(startTime,
		Phase{Duration: tAcc, V0: vInit, Accel: p.MaxAccel},
		Phase{Duration: cruise, V0: p.MaxSpeed, Accel: 0},
	)
	return eta, p.MaxSpeed, prof
}

func refDipArrival(dist, vInit, vLow float64, p Params) (eta, vArr float64, ok bool) {
	if vLow > vInit {
		return 0, 0, false
	}
	tDown := (vInit - vLow) / p.MaxDecel
	dDown := (vInit*vInit - vLow*vLow) / (2 * p.MaxDecel)
	if dDown > dist+1e-12 {
		return 0, 0, false
	}
	rem := dist - dDown
	etaUp, vArr, _ := refEarliestArrival(0, rem, vLow, p)
	return tDown + etaUp, vArr, true
}

// refPlanArrival is PlanArrival's body over refEarliestArrival and
// refDipArrival.
func refPlanArrival(startTime, dist, vInit, arriveAt float64, p Params) (Profile, error) {
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	if dist < 0 {
		return Profile{}, fmt.Errorf("kinematics: negative distance %v", dist)
	}
	vInit = math.Min(math.Max(vInit, 0), p.MaxSpeed)
	want := arriveAt - startTime
	const tol = 1e-3
	earliest, _, fastProf := refEarliestArrival(startTime, dist, vInit, p)
	if want < earliest-tol {
		return Profile{}, fmt.Errorf("%w: want arrival %.4fs after start, earliest %.4fs", ErrInfeasible, want, earliest)
	}
	if want <= earliest+tol {
		return fastProf, nil
	}
	etaStop, _, okStop := refDipArrival(dist, vInit, 0, p)
	if okStop && want > etaStop {
		return buildDipProfile(startTime, dist, vInit, 0, want-etaStop, p), nil
	}
	lo, hi := 0.0, vInit
	if !okStop {
		lo = math.Sqrt(math.Max(0, vInit*vInit-2*p.MaxDecel*dist))
		etaLo, _, okLo := refDipArrival(dist, vInit, lo, p)
		if !okLo || want > etaLo+tol {
			return buildDipProfile(startTime, dist, vInit, lo, 0, p), nil
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		eta, _, ok := refDipArrival(dist, vInit, mid, p)
		if !ok || eta > want {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	return buildDipProfile(startTime, dist, vInit, (lo+hi)/2, 0, p), nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameProfile(a, b Profile) bool {
	if !sameBits(a.StartTime, b.StartTime) || len(a.Phases) != len(b.Phases) {
		return false
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if !sameBits(pa.Duration, pb.Duration) || !sameBits(pa.V0, pb.V0) || !sameBits(pa.Accel, pb.Accel) {
			return false
		}
	}
	return true
}

// timingCase is one (dist, vInit) input of the equivalence grid.
type timingCase struct{ dist, vInit float64 }

// timingGrid returns seeded random inputs for p, plus the edges: dist <= 0,
// vInit above MaxSpeed, and dist exactly at the distance covered reaching
// MaxSpeed (the deltaX == dist boundary between the two branches).
func timingGrid(p Params, rng *rand.Rand) []timingCase {
	cases := []timingCase{{0, 0}, {0, 1}, {-1, p.MaxSpeed}, {-1e-12, 0.5}, {1, 2 * p.MaxSpeed}, {1e-12, 0}}
	for _, v := range []float64{0, 0.1, p.MaxSpeed / 3, p.MaxSpeed / 2, p.MaxSpeed} {
		tAcc := (p.MaxSpeed - v) / p.MaxAccel
		deltaX := 0.5*p.MaxAccel*tAcc*tAcc + v*tAcc
		cases = append(cases, timingCase{deltaX, v},
			timingCase{math.Nextafter(deltaX, 0), v}, timingCase{math.Nextafter(deltaX, math.Inf(1)), v})
	}
	for i := 0; i < 5000; i++ {
		cases = append(cases, timingCase{rng.Float64()*12*p.MaxSpeed - 1, rng.Float64() * 1.2 * p.MaxSpeed})
	}
	return cases
}

// TestEarliestTimingMatchesEarliestArrival pins the timing core to the
// profile-building path it was split from: the same delay and arrival
// velocity bit for bit, and the same profile as the reference copy.
func TestEarliestTimingMatchesEarliestArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Params{ScaleModelParams(), FullScaleParams()} {
		for _, c := range timingGrid(p, rng) {
			start := rng.Float64() * 100
			wantEta, wantV, wantProf := refEarliestArrival(start, c.dist, c.vInit, p)
			tm := earliestTiming(c.dist, c.vInit, p)
			if !sameBits(tm.eta, wantEta) || !sameBits(tm.vArr, wantV) {
				t.Fatalf("%+v at %+v: core (%v, %v), want (%v, %v)", p, c, tm.eta, tm.vArr, wantEta, wantV)
			}
			eta, v := EarliestArrival(c.dist, c.vInit, p)
			prof := EarliestProfile(start, c.dist, c.vInit, p)
			if !sameBits(eta, wantEta) || !sameBits(v, wantV) || !sameProfile(prof, wantProf) {
				t.Fatalf("%+v at %+v: EarliestArrival (%v, %v, %v), want (%v, %v, %v)",
					p, c, eta, v, prof, wantEta, wantV, wantProf)
			}
			for _, vLow := range []float64{0, c.vInit / 2, c.vInit} {
				gotEta, gotV, gotOK := dipArrival(c.dist, c.vInit, vLow, p)
				refEta, refV, refOK := refDipArrival(c.dist, c.vInit, vLow, p)
				if gotOK != refOK || !sameBits(gotEta, refEta) || !sameBits(gotV, refV) {
					t.Fatalf("%+v: dipArrival(%v, %v, %v) = (%v, %v, %v), want (%v, %v, %v)",
						p, c.dist, c.vInit, vLow, gotEta, gotV, gotOK, refEta, refV, refOK)
				}
			}
		}
	}
}

// TestPlanArrivalMatchesReference pins PlanArrival, whose bisection now
// times each candidate dip with the core, to the reference copy that
// built and discarded a profile per step: the same profile bit for bit, or
// the same error, across fast, dip, stop-and-dwell, too-close and
// infeasible requests.
func TestPlanArrivalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []Params{ScaleModelParams(), FullScaleParams()} {
		for _, c := range timingGrid(p, rng) {
			if c.dist < 0 {
				c.dist = -c.dist
			}
			start := rng.Float64() * 100
			earliest, _, _ := refEarliestArrival(start, c.dist, c.vInit, p)
			for _, extra := range []float64{-0.01, 0, 0.0005, rng.Float64(), 3 * rng.Float64(), 20} {
				at := start + earliest + extra
				got, gotErr := PlanArrival(start, c.dist, c.vInit, at, p)
				want, wantErr := refPlanArrival(start, c.dist, c.vInit, at, p)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !sameProfile(got, want) {
					t.Fatalf("%+v: PlanArrival(%v, %v, %v, %v) = %v, %v; want %v, %v",
						p, start, c.dist, c.vInit, at, got, gotErr, want, wantErr)
				}
			}
		}
	}
}
