package im

import (
	"math"

	"crossroads/internal/geom"
	"crossroads/internal/intersection"
)

// SweepTiles rasterises a reserved box crossing over the tile grid, for
// the tile-reservation policies (AIM and dot). The inflated body
// (planLen x planWid) is sampled every dt, from the time its centre is
// planLen/2 before the entry to the time it is planLen/2 past the exit.
// Each sample's tiles are claimed at its step and, as slack for tracking
// tolerance, at one step before and two after. It returns the footprint
// and the number of samples taken, the unit CostModel.SimulationCost
// charges; a sample that touches no tile still counts.
//
// Given reservations fit, it also reports whether fit holds none of the
// footprint's pairs, the answer fit.Available gives on the whole
// footprint. It stops rasterising at the first sample that claims a held
// pair and returns a partial footprint with fits false, but still counts
// every sample, so the cost does not depend on where the crossing was
// refused. A nil fit sweeps the whole crossing and reports true.
func SweepTiles(grid *intersection.TileGrid, m *intersection.Movement, cross Reservation, planLen, planWid, dt float64, fit *intersection.Reservations) (occ intersection.Occupancy, n int, fits bool) {
	tStart, tEnd := sweepSpan(m, cross, planLen)
	// One row per sample plus the slack, sized up front for usual spans.
	rows := 0
	if span := (tEnd - tStart) / dt; span >= 0 && span < 1024 {
		rows = int(span) + 5
	}
	occ = grid.NewOccupancy(rows)
	var buf [intersection.MaxTileGridN * intersection.MaxTileGridN / 64]uint64
	row := buf[:grid.Words()]
	for t := tStart; t <= tEnd; t += dt {
		pose := m.Path.PoseAt(m.EnterS + cross.ArcAtTime(t))
		n++
		clear(row)
		if !grid.Mark(row, geom.NewRect(pose.Pos, planLen, planWid, pose.Heading)) {
			continue
		}
		// The body holds these tiles somewhere within [t, t+dt), and its
		// true passage may deviate by up to a step (tracking tolerance
		// before the vehicle's time-lag re-request triggers).
		step := int64(math.Floor(t / dt))
		if fit != nil {
			for d := int64(-1); d <= 2; d++ {
				if fit.Taken(step+d, row) {
					return occ, n + samplesFrom(t+dt, tEnd, dt), false
				}
			}
		}
		for d := int64(-1); d <= 2; d++ {
			occ.Or(step+d, row)
		}
	}
	return occ, n, true
}

// SweepSamples returns the number of samples SweepTiles takes of the
// crossing, without rasterising any.
func SweepSamples(m *intersection.Movement, cross Reservation, planLen, dt float64) int {
	tStart, tEnd := sweepSpan(m, cross, planLen)
	return samplesFrom(tStart, tEnd, dt)
}

// sweepSpan returns the sampled window of a crossing: from its body's
// centre planLen/2 before the entry to planLen/2 past the exit.
func sweepSpan(m *intersection.Movement, cross Reservation, planLen float64) (tStart, tEnd float64) {
	return cross.TimeAtArc(-planLen / 2), cross.TimeAtArc(m.InsideLen() + planLen/2)
}

// samplesFrom counts the samples t, t+dt, ... up to tEnd, stepping t as
// SweepTiles does.
func samplesFrom(t, tEnd, dt float64) int {
	n := 0
	for ; t <= tEnd; t += dt {
		n++
	}
	return n
}

// ExitCrossing records when and how fast a reserved crossing leaves the
// box, for the exit-merge rule the tile policies apply beyond the grid.
type ExitCrossing struct {
	Exit    intersection.Approach
	Lane    int
	Time    float64
	Speed   float64
	PlanLen float64
}

// ExitOf returns the exit crossing of the reserved trajectory cross over
// movement m with inflated body length planLen.
func ExitOf(m *intersection.Movement, cross Reservation, planLen float64) ExitCrossing {
	return ExitCrossing{
		Exit:    m.Exit,
		Lane:    m.ID.Lane,
		Time:    cross.TimeAtArc(m.InsideLen()),
		Speed:   cross.SpeedAtArc(m.InsideLen()),
		PlanLen: planLen,
	}
}

// SameLane reports whether two crossings leave on the same exit lane.
func (a ExitCrossing) SameLane(b ExitCrossing) bool { return a.Exit == b.Exit && a.Lane == b.Lane }

// ExitSeparated reports whether two same-exit-lane crossings are ordered
// with enough margin: their exit-point passages must not overlap, and
// when the later one is faster it additionally needs the catch-up time
// over the exit road (a faster follower would otherwise catch a slow
// leader on the exit road, outside any tile).
func ExitSeparated(a, b ExitCrossing, exitLen float64) bool {
	first, second := a, b
	if b.Time < a.Time {
		first, second = b, a
	}
	margin := (first.PlanLen/first.Speed + second.PlanLen/second.Speed) / 2
	if second.Speed > first.Speed {
		margin += exitLen * (1/first.Speed - 1/second.Speed)
	}
	return second.Time-first.Time >= margin
}
