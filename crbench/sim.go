package main

import (
	"fmt"
	"math/rand"
	"time"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

const (
	// minCycles is the fewest passes every cell gets in an untraced run,
	// so the median over cycles has at least this many samples whatever
	// the budget.
	minCycles = 3
	// traceEvery picks the cells a traced run records: every traceEvery-th
	// cell, which covers every input flow alike since each flow's cells
	// are a multiple of it. Tracing costs several untraced passes, so
	// recording every cell would outrun the budget.
	traceEvery = 4
)

// cell is one simulation: a fleet at one input flow with its own seed.
type cell struct {
	opts []sim.Option
	cfg  sim.Config
	arr  []traffic.Arrival
	ref  *outcome // the first pass's outcome; every repeat must equal it
}

// outcome is everything a pass computes in simulated time. Host-time
// fields are zeroed, so two passes over the same inputs compare equal.
type outcome struct {
	summary                               metrics.Summary
	incomplete, failsafeStopped, stranded int
}

func outcomeOf(r sim.Result) outcome {
	s := r.Summary
	s.SchedulerWall = 0
	return outcome{summary: s, incomplete: r.Incomplete, failsafeStopped: r.FailsafeStopped, stranded: r.Stranded}
}

// failures counts what went wrong in a pass: collisions, buffer
// violations, and vehicles that never finished their journey.
func (o outcome) failures() int64 {
	return int64(o.summary.Collisions + o.summary.BufferViolations + o.incomplete)
}

// buildCells generates every cell's arrivals and validated config from
// seed: per input flow, subSeeds cells, each seeded by the next draw.
func buildCells(wl workload, seed int64) ([]*cell, error) {
	topo := topology.Single()
	if wl.grid > 0 {
		g, err := topology.Grid(wl.grid, wl.grid)
		if err != nil {
			return nil, err
		}
		topo = g.WithSegmentLen(segLen)
	}
	pol, err := vehicle.ParsePolicy(wl.policy)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var cells []*cell
	for _, rate := range wl.rates {
		for k := 0; k < wl.subSeeds; k++ {
			s := rng.Int63()
			arr, err := traffic.PoissonRoutes(traffic.PoissonConfig{
				Rate:         rate,
				NumVehicles:  fleet,
				LanesPerRoad: 1,
				Mix:          traffic.DefaultTurnMix(),
				Params:       kinematics.ScaleModelParams(),
			}, topo, 0, rand.New(rand.NewSource(s)))
			if err != nil {
				return nil, err
			}
			opts := []sim.Option{
				sim.WithTopology(topo),
				sim.WithPolicy(pol),
				sim.WithSeed(s),
				sim.WithIntersection(intersection.ScaleModelConfig()),
				sim.WithSpec(safety.TestbedSpec()),
			}
			if wl.grid > 0 {
				opts = append(opts, sim.WithCoordination(0))
			}
			cfg, err := sim.NewConfig(opts...)
			if err != nil {
				return nil, err
			}
			cells = append(cells, &cell{opts: opts, cfg: cfg, arr: arr})
		}
	}
	return cells, nil
}

// simStats aggregates the simulation half of a run.
type simStats struct {
	cells        []*cell
	attempted    int64 // vehicles simulated, over every pass
	failed       int64 // failures over every pass
	nonRepeating int   // passes whose outcome differed from the cell's first
	counts       trace.Summary
	tracedSecs   float64
	// Per cycle (one pass over every cell): host seconds simulating, the
	// same time in reference runs, and host seconds inside the IM
	// schedulers.
	cycleSecs, cycleRefs, schedSecs []float64
	// refSecs holds every timed reference run's host seconds.
	refSecs []float64
	// tracedCellSecs is, per cycle of a traced run, the untraced host
	// seconds of the cells the traced pass recorded.
	tracedCellSecs []float64
}

// simulate runs every cell in turn, over and over, until the deadline
// and every cell has had minCycles passes. It starts no pass it expects
// to end more than half a pass past the deadline. Every refEvery of
// simulating it times the reference workload, and converts that stretch
// of host time into reference runs. When traced, one extra pass over
// every traceEvery-th cell first records the event counts.
func simulate(cells []*cell, deadline time.Time, traced bool) (simStats, error) {
	st := simStats{cells: cells}
	cycles := minCycles
	if traced {
		// The traced pass spends the budget too, so a traced run takes no
		// longer than an untraced one; its host-time figures may then rest
		// on a single cycle.
		cycles = 1
		for i, c := range cells {
			if i%traceEvery != 0 {
				continue
			}
			rec := trace.NewFull()
			opts := append(append([]sim.Option(nil), c.opts...), sim.WithTrace(rec), sim.WithDESTrace())
			cfg, err := sim.NewConfig(opts...)
			if err != nil {
				return st, err
			}
			t0 := time.Now()
			if _, err := sim.Run(cfg, c.arr); err != nil {
				return st, err
			}
			st.tracedSecs += time.Since(t0).Seconds()
			st.counts.Merge(rec.Summary())
		}
	}
	var pass time.Duration
	for cycle := 0; cycle < cycles || time.Now().Add(pass/2).Before(deadline); cycle++ {
		var host, inRefs, tracedCells float64
		var sched time.Duration
		started := time.Now()
		chunk := started
		for i, c := range cells {
			t0 := time.Now()
			out, err := sim.Run(c.cfg, c.arr)
			if err != nil {
				return st, fmt.Errorf("simulate: %w", err)
			}
			if traced && i%traceEvery == 0 {
				tracedCells += time.Since(t0).Seconds()
			}
			sched += out.Summary.SchedulerWall
			o := outcomeOf(out)
			if c.ref == nil {
				c.ref = &o
			} else if o != *c.ref {
				st.nonRepeating++
			}
			st.attempted += int64(len(c.arr))
			st.failed += o.failures()
			if d := time.Since(chunk); d >= refEvery || i == len(cells)-1 {
				ref := timeReference()
				host += d.Seconds()
				inRefs += d.Seconds() / ref
				st.refSecs = append(st.refSecs, ref)
				chunk = time.Now()
			}
		}
		pass = time.Since(started)
		st.cycleSecs = append(st.cycleSecs, host)
		st.cycleRefs = append(st.cycleRefs, inRefs)
		st.schedSecs = append(st.schedSecs, sched.Seconds())
		st.tracedCellSecs = append(st.tracedCellSecs, tracedCells)
	}
	return st, nil
}

// vehPerRef is whole-pass simulation throughput in vehicles simulated
// per reference run's worth of host time, the median over cycles.
func (st simStats) vehPerRef() float64 {
	n := 0
	for _, c := range st.cells {
		n += len(c.arr)
	}
	per := make([]float64, len(st.cycleRefs))
	for k, r := range st.cycleRefs {
		per[k] = float64(n) / r
	}
	return median(per)
}

// meanWait is the mean simulated delay over free flow, pooled over every
// completed vehicle of every cell.
func (st simStats) meanWait() float64 {
	var wait float64
	n := 0
	for _, c := range st.cells {
		wait += c.ref.summary.TotalWait
		n += c.ref.summary.Completed
	}
	return wait / float64(n)
}

// throughput is the paper's intersection throughput, completed vehicles
// over their total line-to-exit time, pooled over every cell.
func (st simStats) throughput() float64 {
	var travel float64
	n := 0
	for _, c := range st.cells {
		travel += c.ref.summary.TotalTravel
		n += c.ref.summary.Completed
	}
	return float64(n) / travel
}
