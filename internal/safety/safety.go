// Package safety implements the buffer arithmetic of the paper's Chapters
// 3-4. A vehicle's planning footprint is its physical body inflated
// longitudinally by a safety buffer that covers position uncertainty:
//
//   - sensing/control error Elong (measured at +-75 mm on the testbed),
//   - clock-synchronization error (sync bound x top speed; 1 ms x 3 m/s =
//     3 mm on the testbed, giving the paper's total Elong = +-78 mm),
//   - and, for a plain VT-IM only, the round-trip-delay buffer
//     WC-RTD x top speed, because the vehicle executes its velocity command
//     the instant it arrives and so may be anywhere within that distance
//     of where the IM believed it to be.
//
// Crossroads eliminates the RTD term by fixing the command execution time;
// AIM avoids it by having vehicles keep their proposed speed.
package safety

import "fmt"

// Spec declares the uncertainty sources an IM must buffer against.
type Spec struct {
	// SensingError is the one-sided longitudinal position error bound from
	// sensors, actuation, and control (meters). Paper: 0.075.
	SensingError float64
	// SyncError is the clock-synchronization error bound (seconds).
	// Paper: 0.001.
	SyncError float64
	// WorstRTD is the worst-case round-trip delay: IM computation plus
	// two network traversals (seconds). Paper: 0.150.
	WorstRTD float64
	// MaxSpeed is the top vehicle speed used to convert time uncertainty
	// into distance (m/s). Paper: 3.0.
	MaxSpeed float64
	// LateralError is the one-sided lateral bound; the paper assumes
	// vehicles hold lateral position and disregards it, but the field is
	// carried so multi-lane studies can enable it.
	LateralError float64
}

// Validate reports the first invalid field, or nil.
func (s Spec) Validate() error {
	switch {
	case s.SensingError < 0:
		return fmt.Errorf("safety: SensingError %v must be nonnegative", s.SensingError)
	case s.SyncError < 0:
		return fmt.Errorf("safety: SyncError %v must be nonnegative", s.SyncError)
	case s.WorstRTD < 0:
		return fmt.Errorf("safety: WorstRTD %v must be nonnegative", s.WorstRTD)
	case s.MaxSpeed <= 0:
		return fmt.Errorf("safety: MaxSpeed %v must be positive", s.MaxSpeed)
	case s.LateralError < 0:
		return fmt.Errorf("safety: LateralError %v must be nonnegative", s.LateralError)
	}
	return nil
}

// TestbedSpec returns the paper's measured numbers: 75 mm sensing error,
// 1 ms sync error, 150 ms worst-case RTD, 3 m/s top speed.
func TestbedSpec() Spec {
	return Spec{
		SensingError: 0.075,
		SyncError:    0.001,
		WorstRTD:     0.150,
		MaxSpeed:     3.0,
	}
}

// FullScaleSpec returns uncertainty bounds representative of a full-size
// deployment with the scalability simulations' 15 m/s vehicles: 0.30 m
// sensing error (GPS/odometry fusion), the same 1 ms NTP bound, and the
// testbed's measured 150 ms worst-case RTD.
func FullScaleSpec() Spec {
	return Spec{
		SensingError: 0.30,
		SyncError:    0.001,
		WorstRTD:     0.150,
		MaxSpeed:     15.0,
	}
}

// SyncBuffer returns the distance uncertainty contributed by clock error:
// SyncError x MaxSpeed (3 mm on the testbed).
func (s Spec) SyncBuffer() float64 { return s.SyncError * s.MaxSpeed }

// SensingBuffer returns the one-sided longitudinal buffer without any RTD
// term: SensingError + SyncBuffer. Paper: 75 + 3 = 78 mm.
func (s Spec) SensingBuffer() float64 { return s.SensingError + s.SyncBuffer() }

// RTDBuffer returns the extra one-sided buffer a plain VT-IM needs:
// WorstRTD x MaxSpeed (0.45 m at the testbed's 150 ms and 3 m/s).
func (s Spec) RTDBuffer() float64 { return s.WorstRTD * s.MaxSpeed }

// LipDist returns the lip of a vehicle of the given body length and
// width: the distance before the box entry, from the vehicle's center,
// inside which a timed plan may not dwell or crawl. Closer in, a waiting
// vehicle's nose would sit inside crossing movements' conflict zones,
// which a scheduler's pre-entry occupancy model cannot represent:
// W/2 + 2*SensingBuffer + 0.05 m + L/2.
func (s Spec) LipDist(length, width float64) float64 {
	return width/2 + 2*s.SensingBuffer() + 0.05 + length/2
}

// Buffers bundles the per-side footprint inflation an IM plans with.
type Buffers struct {
	// Long is the one-sided longitudinal inflation (applied to front and
	// rear).
	Long float64
	// Lat is the one-sided lateral inflation (applied to both sides).
	Lat float64
}

// InflatedDims returns a body of the given length/width inflated by the
// buffers (one-sided inflation applied to both ends/sides).
func (b Buffers) InflatedDims(bodyLen, bodyWid float64) (planLen, planWid float64) {
	return bodyLen + 2*b.Long, bodyWid + 2*b.Lat
}

// ForVTIM returns the buffers a plain velocity-transaction IM requires:
// sensing + sync + RTD.
func (s Spec) ForVTIM() Buffers {
	return Buffers{Long: s.SensingBuffer() + s.RTDBuffer(), Lat: s.LateralError}
}

// ForCrossroads returns the buffers Crossroads requires: sensing + sync
// only — fixing the execution time removes the RTD term.
func (s Spec) ForCrossroads() Buffers {
	return Buffers{Long: s.SensingBuffer(), Lat: s.LateralError}
}

// ForAIM returns the buffers the query-based AIM requires: sensing + sync
// only — the vehicle holds its proposed speed, so RTD does not displace it.
func (s Spec) ForAIM() Buffers {
	return Buffers{Long: s.SensingBuffer(), Lat: s.LateralError}
}
