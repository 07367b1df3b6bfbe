// Command benchreport measures the performance-critical paths — the
// reservation-book feasibility query, the parallel experiment engine, and
// the multi-IM corridor engine — and writes a machine-readable report
// (BENCH_*.json) for review alongside code changes.
//
// Usage:
//
//	benchreport -out BENCH_N.json [-label text]
//
// -out is required, so a bare run cannot overwrite a committed artifact.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/parallel"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/sweep"
	"crossroads/internal/topology"
	"crossroads/internal/traffic"
)

func main() {
	out := flag.String("out", "", "output path (required)")
	label := flag.String("label", "", "report label")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchreport: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	rep := metrics.BenchReport{
		Label:  *label,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}

	fmt.Println("benchreport: measuring book hot path...")
	rep.Metrics = append(rep.Metrics, record("BookEarliestFeasible", benchBook()))

	fmt.Println("benchreport: measuring sweep, workers=1...")
	serial := benchSweep(1)
	rep.Metrics = append(rep.Metrics, record("SweepParallel/workers=1", serial))

	// On a single-core machine the "parallel" variant resolves to
	// workers=1 — identical to the serial measurement, and a duplicate
	// metric name the report writer would reject. Skip it and say so.
	workers := parallel.Workers(0)
	if workers > 1 {
		fmt.Printf("benchreport: measuring sweep, workers=%d...\n", workers)
		par := benchSweep(workers)
		rep.Metrics = append(rep.Metrics,
			record(fmt.Sprintf("SweepParallel/workers=%d", workers), par))
		if par.NsPerOp() > 0 {
			fmt.Printf("benchreport: sweep speedup workers=1 -> workers=%d: %.2fx\n",
				workers, float64(serial.NsPerOp())/float64(par.NsPerOp()))
		}
	} else {
		note := "parallel sweep variant skipped: single-core machine (workers=1 equals the serial measurement)"
		rep.Notes = append(rep.Notes, note)
		fmt.Println("benchreport:", note)
	}

	fmt.Println("benchreport: measuring 3-intersection corridor...")
	rep.Metrics = append(rep.Metrics, record("Corridor3/crossroads", benchCorridor()))

	// The coordination plane's headline claim (EXPERIMENTS.md E9): on a
	// saturated full-scale corridor, IM↔IM digests + backpressure +
	// green-wave floors cut mean journey wait at the same seed. Both
	// variants carry the traffic outcome in Extra so the delta is part of
	// the committed artifact, not just the timing.
	for _, coord := range []bool{false, true} {
		fmt.Printf("benchreport: measuring saturated corridor, coord=%v...\n", coord)
		r, sum := benchCoordCorridor(coord)
		name := "CorridorCoord3/crossroads/coord=off"
		if coord {
			name = "CorridorCoord3/crossroads/coord=on"
		}
		m := record(name, r)
		m.Extra = map[string]float64{
			"mean_wait_s": sum.MeanWait,
			"p95_wait_s":  sum.P95Wait,
			"tput_veh_s":  sum.Throughput,
			"collisions":  float64(sum.Collisions),
		}
		rep.Metrics = append(rep.Metrics, m)
	}

	// Grid scaling: a 5x5 Manhattan-grid workload. The Extra carries ns
	// normalized per vehicle-crossing so grid sizes compare directly. The
	// "/serial" suffix keeps the metric name of earlier artifacts.
	fmt.Println("benchreport: measuring 5x5 grid...")
	gr, crossings := benchGrid()
	gm := record("Grid5x5/crossroads/serial", gr)
	if crossings > 0 {
		gm.Extra = map[string]float64{
			"ns_per_vehicle_crossing": float64(gr.NsPerOp()) / float64(crossings),
			"crossings":               float64(crossings),
		}
	}
	rep.Metrics = append(rep.Metrics, gm)

	fmt.Println("benchreport: measuring fault-injection overhead (mix scenario)...")
	fm, matrix := benchFaultMatrix()
	m := record("FaultMatrix/mix/crossroads", fm)
	clean := matrix.CleanThroughput(0, 0)
	faulted := matrix.Cell(1, 0, 0).Summary.Throughput
	m.Extra = map[string]float64{
		"clean_tput":   clean,
		"faulted_tput": faulted,
	}
	if clean > 0 {
		m.Extra["tput_ratio"] = faulted / clean
	}
	rep.Metrics = append(rep.Metrics, m)
	fmt.Printf("benchreport: mix-scenario throughput %.4f vs clean %.4f (%.2fx)\n",
		faulted, clean, m.Extra["tput_ratio"])

	// Policy registry: one reduced flow sweep per scheduler family, so a
	// new policy's scheduling cost and traffic outcome land in the same
	// committed artifact as the engine timings. Extra carries the
	// heaviest-rate cell (1.0 car/lane/s) — the regime that separates the
	// families.
	for _, pol := range []string{"crossroads", "dot", "signalized", "auction"} {
		fmt.Printf("benchreport: measuring policy sweep, policy=%s...\n", pol)
		r, cell := benchPolicySweep(pol)
		m := record("PolicySweep/"+pol, r)
		m.Extra = map[string]float64{
			"tput_veh_s":  cell.Throughput,
			"mean_wait_s": cell.MeanWait,
			"collisions":  float64(cell.Collisions),
		}
		rep.Metrics = append(rep.Metrics, m)
	}

	if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Printf("benchreport: wrote %s (%d cores)\n", *out, rep.NumCPU)
}

// record converts a testing.BenchmarkResult into the report schema.
func record(name string, r testing.BenchmarkResult) metrics.BenchMetric {
	return metrics.BenchMetric{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
}

// benchBook measures repeated EarliestFeasible queries against a standing
// 36-reservation ledger — the same workload as BenchmarkBookEarliestFeasible
// in the repo's bench suite.
func benchBook() testing.BenchmarkResult {
	x, err := intersection.New(intersection.ScaleModelConfig())
	fatal(err)
	table, err := intersection.BuildConflictTable(x, 0.724, 0.452, 0.05)
	fatal(err)
	book := im.NewBook(x, table, 0.05, 0.156)
	moves := x.Movements()
	for i := 0; i < 36; i++ {
		m := moves[i%len(moves)]
		fatal(book.Add(im.Reservation{
			VehicleID: int64(i + 1),
			Seniority: int64(i),
			Movement:  m.ID,
			ToA:       1 + 0.5*float64(i),
			Plan:      im.ConstantPlan(3),
			PlanLen:   m.Path.Length(),
		}))
	}
	query := moves[0]
	plan := func(float64) im.CrossingPlan { return im.ConstantPlan(3) }
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := book.EarliestFeasible(1000, 1000, query.ID, query.Path.Length(), 2, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSweep measures one reduced Fig. 7.2 sweep per iteration at the given
// worker count; the Result is bit-identical across widths, only the wall
// time changes.
func benchSweep(workers int) testing.BenchmarkResult {
	cfg := sweep.Config{
		Rates:       []float64{0.1, 0.4, 0.7, 1.0},
		NumVehicles: 24,
		Seed:        42,
		Workers:     workers,
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchPolicySweep measures one reduced single-policy flow sweep per
// iteration and returns the timing plus the heaviest-rate cell, so every
// registered scheduler family carries a comparable cost and outcome row in
// the report.
func benchPolicySweep(pol string) (testing.BenchmarkResult, metrics.Summary) {
	cfg := sweep.Config{
		Rates:       []float64{0.1, 0.4, 1.0},
		NumVehicles: 24,
		Policies:    []string{pol},
		Seed:        42,
		Workers:     1,
	}
	var last metrics.Summary
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sweep.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			last = res.Cell(len(res.Rates)-1, 0).Summary
			if last.Collisions != 0 || last.BufferViolations != 0 {
				b.Fatalf("policy %v: %d collisions, %d buffer violations",
					pol, last.Collisions, last.BufferViolations)
			}
		}
	})
	return r, last
}

// benchCorridor measures one full 3-intersection corridor run per
// iteration under the Crossroads policy — the same workload as
// BenchmarkCorridor in the repo's bench suite.
func benchCorridor() testing.BenchmarkResult {
	topo, err := topology.Line(3)
	fatal(err)
	topo = topo.WithSegmentLen(0.8)
	arr, err := traffic.PoissonRoutes(traffic.PoissonConfig{
		Rate: 0.3, NumVehicles: 40, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
	}, topo, 0, rand.New(rand.NewSource(42)))
	fatal(err)
	cfg, err := sim.NewConfig(
		sim.WithTopology(topo),
		sim.WithPolicy("crossroads"),
		sim.WithSeed(42),
		sim.WithSpec(safety.TestbedSpec()),
	)
	fatal(err)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(cfg, arr)
			if err != nil {
				b.Fatal(err)
			}
			if res.Summary.Completed != 40 {
				b.Fatalf("completed %d", res.Summary.Completed)
			}
		}
	})
}

// benchCoordCorridor measures one saturated full-scale 3-intersection
// corridor run per iteration — the EXPERIMENTS.md E9 workload, via the
// same sweep entry point the CLI uses — with the coordination plane on or
// off, returning the timing and the last run's journey summary for the
// report's Extra fields.
func benchCoordCorridor(coord bool) (testing.BenchmarkResult, metrics.Summary) {
	topo, err := topology.Line(3)
	fatal(err)
	cfg := sweep.TopoConfig{
		Topology:    topo.WithSegmentLen(120),
		Rate:        0.6,
		NumVehicles: 200,
		Policies:    []string{"crossroads"},
		Seed:        42,
		Coord:       coord,
	}
	var last metrics.Summary
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sweep.RunTopology(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cell := res.Cell(0)
			if cell.Summary.Completed != 200 || cell.Summary.Collisions != 0 || cell.Incomplete != 0 {
				b.Fatalf("corridor run unhealthy: completed=%d collisions=%d incomplete=%d",
					cell.Summary.Completed, cell.Summary.Collisions, cell.Incomplete)
			}
			last = cell.Summary
		}
	})
	return r, last
}

// benchGrid measures one full 5x5 Manhattan-grid run per iteration under
// the Crossroads policy — the same workload as BenchmarkGrid/5x5 in the
// repo's bench suite — returning the timing and the total vehicle-crossings
// per run (journeys × nodes traversed) for the normalized ns/crossing
// metric.
func benchGrid() (testing.BenchmarkResult, int) {
	topo, err := topology.Grid(5, 5)
	fatal(err)
	topo = topo.WithSegmentLen(0.8)
	arr, err := traffic.PoissonRoutes(traffic.PoissonConfig{
		Rate: 0.3, NumVehicles: 80, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
	}, topo, 0, rand.New(rand.NewSource(42)))
	fatal(err)
	cfg, err := sim.NewConfig(
		sim.WithTopology(topo),
		sim.WithPolicy("crossroads"),
		sim.WithSeed(42),
		sim.WithSpec(safety.TestbedSpec()),
	)
	fatal(err)
	crossings := 0
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(cfg, arr)
			if err != nil {
				b.Fatal(err)
			}
			if res.Summary.Completed != 80 || res.Summary.Collisions != 0 {
				b.Fatalf("grid run unhealthy: completed=%d collisions=%d",
					res.Summary.Completed, res.Summary.Collisions)
			}
			crossings = 0
			for _, s := range res.PerNode {
				crossings += s.Completed
			}
		}
	})
	return r, crossings
}

// benchFaultMatrix measures one clean-vs-mix fault-matrix column per
// iteration under Crossroads — the cost of a fully scripted disruption run
// — and returns the last result so the report can carry the
// faulted-vs-clean throughput ratio alongside the timing.
func benchFaultMatrix() (testing.BenchmarkResult, sweep.FaultMatrixResult) {
	cfg := sweep.FaultMatrixConfig{
		Scenarios: []string{"mix"},
		Policies:  []string{"crossroads"},
		Seeds:     []int64{1},
		Workers:   1,
	}
	var last sweep.FaultMatrixResult
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sweep.RunFaultMatrix(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if v := res.SafetyViolations(); v != 0 {
				b.Fatalf("%d safety violations", v)
			}
			last = res
		}
	})
	return r, last
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}
