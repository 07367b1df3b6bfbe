// Benchmark harness regenerating every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	E1 BenchmarkCalibrateElong       — §3.1 / Fig. 3.1 control-error bound
//	E2 BenchmarkCalibrateSync        — §3.2 clock-sync residual
//	E3 BenchmarkCalibrateRTD         — Ch. 4 worst-case round-trip delay
//	E4 BenchmarkScaleModelScenarios  — §7.1 / Fig. 7.1 wait-time comparison
//	E5 BenchmarkFlowSweep            — §7.2 / Fig. 7.2 throughput vs flow
//	E6 BenchmarkOverheadComparison   — §7.2 compute/network overhead
//	E7 (headline ratios)             — reported by BenchmarkFlowSweep
//	E9 BenchmarkCorridorCoord        — IM-to-IM coordination, saturated corridor
//	E10 BenchmarkPolicySweep         — one reduced sweep per scheduler family
//	A1 BenchmarkAblationNoRTDBuffer  — safety without the RTD buffer
//	A2 BenchmarkAblationBufferSweep  — throughput vs RTD-buffer length
//
// Custom b.ReportMetric values carry the reproduced quantities (throughput,
// ratios, millimeters, milliseconds) so `go test -bench . -benchmem`
// prints the paper's numbers next to the runtime cost of producing them.
// `make bench-report` runs the layer rungs and the whole-workload
// benchmarks through cmd/benchreport, which turns each result line, these
// values included, into a row of a BENCH_N.json artifact.
package crossroads

import (
	"fmt"
	"math/rand"
	"testing"

	"crossroads/internal/calib"
	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/network"
	"crossroads/internal/parallel"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/sweep"
	"crossroads/internal/topology"
	"crossroads/internal/traffic"
)

// E1: the Fig. 3.1 longitudinal control-error estimation. Paper: worst
// |Elong| = 75 mm over 20 trials per worst-case speed pair.
func BenchmarkCalibrateElong(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		cfg := calib.DefaultElongConfig()
		cfg.Seed = int64(i + 1)
		res, err := calib.MeasureElong(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst = res.WorstAbs
	}
	b.ReportMetric(worst*1000, "worst-Elong-mm")
}

// E2: the §3.2 clock-synchronization residual. Paper: 1 ms bound, 3 mm
// buffer at 3 m/s.
func BenchmarkCalibrateSync(b *testing.B) {
	var res calib.SyncResult
	for i := 0; i < b.N; i++ {
		res = calib.MeasureSync(50, 8, int64(i+1))
	}
	b.ReportMetric(res.WorstResidual*1000, "worst-residual-ms")
	b.ReportMetric(res.BufferAt(3)*1000, "sync-buffer-mm")
}

// E3: the Ch. 4 worst-case RTD measurement — 10 trials of four simultaneous
// arrivals. Paper: 135 ms compute + 15 ms network, bounded at 150 ms.
func BenchmarkCalibrateRTD(b *testing.B) {
	var res calib.RTDResult
	for i := 0; i < b.N; i++ {
		r, err := calib.MeasureRTD(10, 1, int64(i+1), func(x *intersection.Intersection, rng *rand.Rand) (im.Scheduler, error) {
			return core.New(x, core.DefaultConfig(), rng)
		})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.WorstRTD*1000, "worst-RTD-ms")
	b.ReportMetric(res.MeanRTD*1000, "mean-RTD-ms")
}

// E4: the §7.1 / Fig. 7.1 scale-model experiment — ten scenarios under
// VT-IM and Crossroads. Paper: 1.24x (worst case) to 1.08x (best case)
// lower wait, ~24% on average.
func BenchmarkScaleModelScenarios(b *testing.B) {
	var res sweep.ScaleResult
	for i := 0; i < b.N; i++ {
		r, err := sweep.RunScale(sweep.ScaleConfig{Repetitions: 3, Seed: int64(i + 1), Noisy: true})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	sp := res.Speedup(0, 1)
	b.ReportMetric(sp[0], "worst-case-ratio")
	b.ReportMetric(sp[len(sp)-1], "best-case-ratio")
	b.ReportMetric(res.AverageWait(0)/res.AverageWait(1), "avg-ratio")
}

// runSweepBench executes the Fig. 7.2 sweep once per iteration at a reduced
// fleet, reporting the requested policy's saturated throughput.
func runSweepBench(b *testing.B, rates []float64, policies []string) sweep.Result {
	b.Helper()
	var res sweep.Result
	for i := 0; i < b.N; i++ {
		r, err := sweep.Run(sweep.Config{
			Rates:       rates,
			NumVehicles: 80,
			Seed:        int64(i + 42),
			Policies:    policies,
		})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	return res
}

// E5 + E7: the §7.2 / Fig. 7.2 throughput-versus-flow study and its
// headline ratios. Paper: Crossroads up to 1.62x (avg 1.36x) over VT-IM
// and up to 1.28x (avg 1.15x) over AIM.
func BenchmarkFlowSweep(b *testing.B) {
	rates := []float64{0.1, 0.4, 1.0}
	res := runSweepBench(b, rates, nil)
	last := len(res.Rates) - 1
	for pi, pol := range res.Policies {
		b.ReportMetric(res.Cell(last, pi).Summary.Throughput, pol+"-tput@1.0")
	}
	if worst, avg, err := res.Headline("vt-im"); err == nil {
		b.ReportMetric(worst, "vs-vtim-worst")
		b.ReportMetric(avg, "vs-vtim-avg")
	}
	if worst, avg, err := res.Headline("aim"); err == nil {
		b.ReportMetric(worst, "vs-aim-worst")
		b.ReportMetric(avg, "vs-aim-avg")
	}
}

// BenchmarkFlowSweepTraced is BenchmarkFlowSweep with full event tracing
// on, so the two benchmarks bound the observability layer's enabled cost;
// the un-traced run also guards the nil-recorder ≤5% overhead contract
// (the per-emit side of that contract is pinned numerically in
// internal/trace's TestNilEmitNearZeroOverhead).
func BenchmarkFlowSweepTraced(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(sweep.Config{
			Rates:       []float64{0.1, 0.4, 1.0},
			NumVehicles: 80,
			Seed:        int64(i + 42),
			TraceFull:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.TraceSummary().Total
	}
	b.ReportMetric(float64(events), "events/sweep")
}

// BenchmarkFlowSweepPerPolicy times each policy's full simulation
// separately so regressions are attributable.
func BenchmarkFlowSweepPerPolicy(b *testing.B) {
	for _, pol := range []string{"vt-im", "aim", "crossroads"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			res := runSweepBench(b, []float64{0.4}, []string{pol})
			b.ReportMetric(res.Cell(0, 0).Summary.Throughput, "tput")
			b.ReportMetric(float64(res.Cell(0, 0).Summary.Messages), "messages")
		})
	}
}

// E6: the compute/network overhead comparison. Paper: AIM costs up to ~16x
// the computation and up to ~20x the traffic of the velocity-transaction
// designs.
func BenchmarkOverheadComparison(b *testing.B) {
	res := runSweepBench(b, []float64{0.6}, nil)
	byName := map[string]metrics.Summary{}
	for pi, pol := range res.Policies {
		byName[pol] = res.Cell(0, pi).Summary
	}
	aim, cr := byName["aim"], byName["crossroads"]
	if cr.SchedulerSimDelay > 0 {
		b.ReportMetric(aim.SchedulerSimDelay/cr.SchedulerSimDelay, "aim-compute-ratio")
	}
	if cr.Messages > 0 {
		b.ReportMetric(float64(aim.Messages)/float64(cr.Messages), "aim-msg-ratio")
	}
	b.ReportMetric(aim.MeanRetries, "aim-retries-per-veh")
}

// A1: the safety ablation — VT-IM without its RTD buffer under worst-case
// in-spec delays accumulates buffer violations; with the buffer it is
// clean. The reported metric is violations per 80-vehicle run.
func BenchmarkAblationNoRTDBuffer(b *testing.B) {
	violations := 0.0
	runs := 0
	for i := 0; i < b.N; i++ {
		for seed := int64(1); seed <= 3; seed++ {
			arr, err := traffic.Poisson(traffic.PoissonConfig{
				Rate: 1.2, NumVehicles: 80, LanesPerRoad: 1,
				Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
			}, rand.New(rand.NewSource(seed)))
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Policy:        "vt-im",
				Seed:          seed,
				OmitRTDBuffer: true,
				Delay:         network.ConstantDelay{D: 0.015},
				Cost:          im.CostModel{RequestBase: 0.033, PerReservation: 0.0003},
			}, arr)
			if err != nil {
				b.Fatal(err)
			}
			violations += float64(res.Summary.BufferViolations + res.Summary.Collisions)
			runs++
		}
	}
	b.ReportMetric(violations/float64(runs), "violations-per-run")
}

// A2: throughput versus the provisioned RTD buffer — the design-space sweep
// motivating Crossroads: every extra 100 ms of WC-RTD budget costs VT-IM
// throughput, while Crossroads is flat by construction.
func BenchmarkAblationBufferSweep(b *testing.B) {
	for _, wcRTD := range []float64{0.05, 0.15, 0.30} {
		wcRTD := wcRTD
		b.Run(formatMs(wcRTD), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				arr, err := traffic.Poisson(traffic.PoissonConfig{
					Rate: 0.6, NumVehicles: 60, LanesPerRoad: 1,
					Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
				}, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				spec := safety.TestbedSpec()
				spec.WorstRTD = wcRTD
				res, err := sim.Run(sim.Config{
					Policy: "vt-im",
					Seed:   7,
					Spec:   spec,
				}, arr)
				if err != nil {
					b.Fatal(err)
				}
				tput = res.Summary.Throughput
			}
			b.ReportMetric(tput, "vtim-tput")
		})
	}
}

func formatMs(s float64) string {
	switch s {
	case 0.05:
		return "rtd50ms"
	case 0.15:
		return "rtd150ms"
	case 0.30:
		return "rtd300ms"
	default:
		return "rtd"
	}
}

// Micro-benchmarks: the costs behind the simulated computation model.

// BenchmarkBookEarliestFeasible exercises the reservation-book hot path:
// repeated feasibility queries against a standing ledger of bookings. The
// book caches entry/exit intervals and padded conflict-zone occupancy per
// reservation, so each query costs one pass over the ToA-sorted ledger
// with no sorting and no per-reservation recomputation.
func BenchmarkBookEarliestFeasible(b *testing.B) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	table, err := intersection.BuildConflictTable(x, 0.724, 0.452, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	book := im.NewBook(x, table, 0.05, 0.156)
	moves := x.Movements()
	// A standing ledger of 36 reservations spread over the movements,
	// spaced tightly enough that queries walk real conflicts.
	for i := 0; i < 36; i++ {
		m := moves[i%len(moves)]
		if err := book.Add(im.Reservation{
			VehicleID: int64(i + 1),
			Seniority: int64(i),
			Movement:  m.ID,
			ToA:       1 + 0.5*float64(i),
			Plan:      im.ConstantPlan(3),
			PlanLen:   m.Path.Length(),
		}); err != nil {
			b.Fatal(err)
		}
	}
	query := moves[0]
	plan := func(float64) im.CrossingPlan { return im.ConstantPlan(3) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := book.EarliestFeasible(1000, 1000, query.ID, query.Path.Length(), 2, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same small Fig. 7.2 sweep serially and,
// on a multi-core host, with one worker per core; the workers=1/workers=N
// ns/op ratio is the experiment engine's parallel speedup (the two runs
// produce bit-identical Results at any width). One untimed sweep first
// fills the process-wide conflict-table cache, whose full-scale build
// would otherwise be timed as the first workers=1 iteration.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := sweep.Config{
		Rates:       []float64{0.1, 0.4, 0.7, 1.0},
		NumVehicles: 40,
		Seed:        42,
	}
	if _, err := sweep.Run(cfg); err != nil {
		b.Fatal(err)
	}
	widths := []int{1}
	if n := parallel.Workers(0); n > 1 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolicySweep runs one reduced flow sweep per scheduler family,
// so each family's scheduling cost and traffic outcome land in the same
// benchmark artifact. The reported outcome is the heaviest-rate cell's
// (1.0 car/lane/s), the regime that separates the families; any collision
// or buffer violation there fails the run.
func BenchmarkPolicySweep(b *testing.B) {
	for _, pol := range []string{"crossroads", "dot", "signalized", "auction"} {
		b.Run(pol, func(b *testing.B) {
			cfg := sweep.Config{
				Rates:       []float64{0.1, 0.4, 1.0},
				NumVehicles: 24,
				Policies:    []string{pol},
				Seed:        42,
				Workers:     1,
			}
			var last metrics.Summary
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
			b.ReportMetric(last.Throughput, "tput_veh_s")
			b.ReportMetric(last.MeanWait, "mean_wait_s")
			b.ReportMetric(float64(last.Collisions), "collisions")
		})
	}
}

func BenchmarkSchedulerCrossroadsRequest(b *testing.B) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	sched, err := core.New(x, core.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	benchRequestStream(b, sched)
}

// BenchmarkSchedulerDotRequest sends the Crossroads rung's request stream
// to the space-time tile scheduler, built through its registry entry:
// each request rasterises candidate footprints and scans the reservation
// table.
func BenchmarkSchedulerDotRequest(b *testing.B) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	e, err := im.LookupPolicy("dot")
	if err != nil {
		b.Fatal(err)
	}
	opts := im.PolicyOptions{Spec: safety.TestbedSpec(), Cost: im.TestbedCostModel()}
	sched, err := e.Factory(x, opts, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	benchRequestStream(b, sched)
}

// benchRequestStream times one scheduler request per iteration: sixteen
// vehicles, 0.1 s apart, cycling over the four straight movements, all
// exiting after every sixteenth request.
func benchRequestStream(b *testing.B, sched im.Scheduler) {
	params := kinematics.ScaleModelParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i%16 + 1)
		now := float64(i) * 0.1
		sched.HandleRequest(now, im.Request{
			VehicleID: id, Seq: i,
			Movement:     intersection.MovementID{Approach: intersection.Approach(i % 4), Lane: 0, Turn: intersection.Straight},
			CurrentSpeed: 3, DistToEntry: 3, TransmitTime: now - 0.01,
			Params: params,
		})
		if i%16 == 15 {
			for v := int64(1); v <= 16; v++ {
				sched.HandleExit(now, v)
			}
		}
	}
}

func BenchmarkConflictTableBuild(b *testing.B) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := intersection.BuildConflictTable(x, 0.724, 0.452, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorridor runs the multi-IM engine over a 3-intersection
// corridor under Crossroads: one routed Poisson workload, three IM shards
// sharing the kernel and the V2I network. Reported metrics are the
// end-to-end journey throughput and the total crossings scheduled across
// the corridor (journeys × nodes traversed).
func BenchmarkCorridor(b *testing.B) {
	topo, err := topology.Line(3)
	if err != nil {
		b.Fatal(err)
	}
	topo = topo.WithSegmentLen(0.8)
	arr, err := traffic.PoissonRoutes(traffic.PoissonConfig{
		Rate: 0.3, NumVehicles: 40, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
	}, topo, 0, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	var res sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(sim.Config{
			Topology: topo,
			Policy:   "crossroads",
			Seed:     42,
			Spec:     safety.TestbedSpec(),
		}, arr)
		if err != nil {
			b.Fatal(err)
		}
		if r.Summary.Completed != 40 || r.Summary.Collisions != 0 {
			b.Fatalf("corridor run unhealthy: completed=%d collisions=%d",
				r.Summary.Completed, r.Summary.Collisions)
		}
		res = r
	}
	b.ReportMetric(res.Summary.Throughput, "journey-tput")
	crossings := 0
	for _, s := range res.PerNode {
		crossings += s.Completed
	}
	b.ReportMetric(float64(crossings), "crossings")
}

// BenchmarkCorridorCoord runs the EXPERIMENTS.md E9 workload, a
// saturated full-scale 3-intersection corridor, through the entry point
// the CLI uses, with the IM-to-IM coordination plane off and on. The
// reported journey outcome carries E9's wait delta; every iteration
// asserts the whole fleet completes with zero collisions.
func BenchmarkCorridorCoord(b *testing.B) {
	topo, err := topology.Line(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, coord := range []bool{false, true} {
		name := "coord=off"
		if coord {
			name = "coord=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sweep.TopoConfig{
				Topology:    topo.WithSegmentLen(120),
				Rate:        0.6,
				NumVehicles: 200,
				Policies:    []string{"crossroads"},
				Seed:        42,
				Coord:       coord,
			}
			var sum metrics.Summary
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
				sum = cell.Summary
			}
			b.ReportMetric(sum.MeanWait, "mean_wait_s")
			b.ReportMetric(sum.P95Wait, "p95_wait_s")
			b.ReportMetric(sum.Throughput, "tput_veh_s")
			b.ReportMetric(float64(sum.Collisions), "collisions")
		})
	}
}

// BenchmarkGrid runs Manhattan grids under Crossroads. The reported
// ns/vehicle-crossing normalizes runtime by the total work done (journeys ×
// nodes traversed), so grid sizes are directly comparable; every iteration
// asserts the full fleet completes with zero collisions.
func BenchmarkGrid(b *testing.B) {
	grids := []struct {
		name     string
		rows     int
		vehicles int
	}{
		{"5x5", 5, 80},
		{"10x10", 10, 160},
	}
	for _, g := range grids {
		g := g
		topo, err := topology.Grid(g.rows, g.rows)
		if err != nil {
			b.Fatal(err)
		}
		topo = topo.WithSegmentLen(0.8)
		arr, err := traffic.PoissonRoutes(traffic.PoissonConfig{
			Rate: 0.3, NumVehicles: g.vehicles, LanesPerRoad: 1,
			Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
		}, topo, 0, rand.New(rand.NewSource(42)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(g.name, func(b *testing.B) {
			cfg, err := sim.NewConfig(
				sim.WithTopology(topo),
				sim.WithPolicy("crossroads"),
				sim.WithSeed(42),
				sim.WithSpec(safety.TestbedSpec()),
			)
			if err != nil {
				b.Fatal(err)
			}
			crossings := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg, arr)
				if err != nil {
					b.Fatal(err)
				}
				if res.Summary.Completed != g.vehicles || res.Summary.Collisions != 0 {
					b.Fatalf("grid run unhealthy: completed=%d collisions=%d",
						res.Summary.Completed, res.Summary.Collisions)
				}
				crossings = 0
				for _, s := range res.PerNode {
					crossings += s.Completed
				}
			}
			b.StopTimer()
			if crossings > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(crossings),
					"ns/vehicle-crossing")
			}
			b.ReportMetric(float64(crossings), "crossings")
		})
	}
}

// BenchmarkFaultMatrixMix runs the fault matrix's clean and mix columns
// under Crossroads at seed 1: the cost of a fully scripted disruption run,
// and the throughput the disruption leaves against the clean run. Any
// collision, buffer violation or stranded vehicle fails it.
func BenchmarkFaultMatrixMix(b *testing.B) {
	cfg := sweep.FaultMatrixConfig{
		Scenarios: []string{"mix"},
		Policies:  []string{"crossroads"},
		Seeds:     []int64{1},
		Workers:   1,
	}
	var res sweep.FaultMatrixResult
	for i := 0; i < b.N; i++ {
		r, err := sweep.RunFaultMatrix(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if v := r.SafetyViolations(); v != 0 {
			b.Fatalf("%d safety violations", v)
		}
		res = r
	}
	clean, faulted := res.CleanThroughput(0, 0), res.Cell(1, 0, 0).Summary.Throughput
	b.ReportMetric(clean, "clean_tput")
	b.ReportMetric(faulted, "faulted_tput")
	if clean > 0 {
		b.ReportMetric(faulted/clean, "tput_ratio")
	}
}

func BenchmarkFullSimulation160Vehicles(b *testing.B) {
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate: 0.4, NumVehicles: 160, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{Policy: "crossroads", Seed: 42}, arr)
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Completed != 160 {
			b.Fatalf("completed %d", res.Summary.Completed)
		}
	}
}
