package sim

import (
	"testing"

	"crossroads/internal/fault"
	"crossroads/internal/plant"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/vehicle"
)

// coordEventCount tallies the coordination plane's footprint in a trace:
// im.digest/im.defer events plus digest messages on the wire.
func coordEventCount(evs []trace.Event) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == trace.KindIMDigest || ev.Kind == trace.KindIMDefer || ev.MsgKind == "digest" {
			n++
		}
	}
	return n
}

// TestCoordOffByteIdenticalAcrossWorkers pins the coordination plane's
// zero-cost-when-off contract on the parallel kernel: with Coord unset the
// run carries no coordination events at all, and the full result — vehicle
// records, summary, network stats, canonicalized trace — is bit-identical
// at any kernel worker count (and therefore identical to pre-coordination
// builds, which the golden trace test pins separately).
func TestCoordOffByteIdenticalAcrossWorkers(t *testing.T) {
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo := grid22.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 14, 17)
	run := func(workers int) (Result, []trace.Event) {
		rec := trace.NewFull()
		cfg, err := NewConfig(
			WithTopology(topo),
			WithPolicy(vehicle.PolicyCrossroads),
			WithSeed(17),
			WithNoise(plant.TestbedNoise()),
			WithKernel(KernelParallel),
			WithKernelWorkers(workers),
			WithTrace(rec),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, arr)
		if err != nil {
			t.Fatal(err)
		}
		res.Summary.SchedulerWall = 0
		for k := range res.PerNode {
			res.PerNode[k].SchedulerWall = 0
		}
		evs := append([]trace.Event(nil), rec.Events()...)
		trace.CanonicalizeWall(evs)
		return res, evs
	}
	want, wantEvs := run(1)
	if n := coordEventCount(wantEvs); n != 0 {
		t.Fatalf("coord-off run carries %d coordination events", n)
	}
	for _, workers := range []int{2, 4} {
		got, gotEvs := run(workers)
		if got.Summary != want.Summary || got.Network != want.Network {
			t.Errorf("workers=%d: coord-off results differ:\n got %+v\nwant %+v",
				workers, got.Summary, want.Summary)
		}
		if len(gotEvs) != len(wantEvs) {
			t.Fatalf("workers=%d: trace length %d, want %d", workers, len(gotEvs), len(wantEvs))
		}
		for i := range wantEvs {
			if gotEvs[i] != wantEvs[i] {
				t.Fatalf("workers=%d: trace event %d differs:\n got %+v\nwant %+v",
					workers, i, gotEvs[i], wantEvs[i])
			}
		}
	}
}

// TestCoordOnDeterministicAcrossKernelWorkers extends the parallel
// kernel's determinism contract to the coordination plane: with digests,
// backpressure, and green-wave offsets armed on a fully stochastic
// configuration, results stay bit-identical at any worker count.
func TestCoordOnDeterministicAcrossKernelWorkers(t *testing.T) {
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo := grid22.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 14, 19)
	run := func(workers int) (Result, []trace.Event) {
		rec := trace.NewFull()
		cfg, err := NewConfig(
			WithTopology(topo),
			WithPolicy(vehicle.PolicyCrossroads),
			WithSeed(19),
			WithNoise(plant.TestbedNoise()),
			WithCoordination(0),
			WithKernel(KernelParallel),
			WithKernelWorkers(workers),
			WithTrace(rec),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kernel != "parallel" {
			t.Fatalf("ran on %q kernel", res.Kernel)
		}
		res.Summary.SchedulerWall = 0
		for k := range res.PerNode {
			res.PerNode[k].SchedulerWall = 0
		}
		evs := append([]trace.Event(nil), rec.Events()...)
		trace.CanonicalizeWall(evs)
		return res, evs
	}
	want, wantEvs := run(1)
	if want.Summary.Collisions != 0 {
		t.Errorf("collisions with coordination on: %d", want.Summary.Collisions)
	}
	if n := coordEventCount(wantEvs); n == 0 {
		t.Error("coordination armed but no digest traffic recorded")
	}
	for _, workers := range []int{2, 4} {
		got, gotEvs := run(workers)
		for i := range want.Vehicles {
			if got.Vehicles[i] != want.Vehicles[i] {
				t.Fatalf("workers=%d: vehicle record %d differs:\n got %+v\nwant %+v",
					workers, i, got.Vehicles[i], want.Vehicles[i])
			}
		}
		if got.Summary != want.Summary || got.Network != want.Network {
			t.Errorf("workers=%d: coord-on results differ:\n got %+v\nwant %+v",
				workers, got.Summary, want.Summary)
		}
		if len(gotEvs) != len(wantEvs) {
			t.Fatalf("workers=%d: trace length %d, want %d", workers, len(gotEvs), len(wantEvs))
		}
		for i := range wantEvs {
			if gotEvs[i] != wantEvs[i] {
				t.Fatalf("workers=%d: trace event %d differs:\n got %+v\nwant %+v",
					workers, i, gotEvs[i], wantEvs[i])
			}
		}
	}
}

// TestCoordDigestPeriodClampedToLookahead pins the parallel kernel's
// digest-cadence floor: a requested period far below the lookahead window
// is raised to it, so digests never force sub-lookahead synchronization —
// consecutive digest sends from any one IM are at least a window apart.
func TestCoordDigestPeriodClampedToLookahead(t *testing.T) {
	line3, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	topo := line3.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 12, 23)
	maxSpeed := 0.0
	for _, a := range arr {
		if a.Params.MaxSpeed > maxSpeed {
			maxSpeed = a.Params.MaxSpeed
		}
	}
	lookahead := topo.SegmentLen() / maxSpeed
	rec := trace.NewFull()
	cfg, err := NewConfig(
		WithTopology(topo),
		WithPolicy(vehicle.PolicyCrossroads),
		WithSeed(23),
		WithCoordination(lookahead/100), // absurdly fast: must be clamped
		WithKernel(KernelParallel),
		WithTrace(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "parallel" {
		t.Fatalf("ran on %q kernel", res.Kernel)
	}
	lastSend := map[string]float64{}
	digests := 0
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindMsgSend || ev.MsgKind != "digest" {
			continue
		}
		digests++
		// One broadcast sends to every peer at the same instant; only
		// distinct broadcast times must be a full window apart.
		if prev, ok := lastSend[ev.From]; ok && ev.T != prev {
			if gap := ev.T - prev; gap < lookahead*(1-1e-9) {
				t.Fatalf("digest from %s sent %.6fs after the previous one; lookahead is %.6fs",
					ev.From, gap, lookahead)
			}
		}
		lastSend[ev.From] = ev.T
	}
	if digests == 0 {
		t.Fatal("no digest sends recorded")
	}
}

// TestCoordCleanOnBothKernels is the coordination safety gate: a
// coordinated corridor run completes every journey with zero collisions
// under both kernels, and the digest plane is demonstrably active.
func TestCoordCleanOnBothKernels(t *testing.T) {
	line3, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	topo := line3.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 20, 29)
	for _, kernel := range []Kernel{KernelSerial, KernelParallel} {
		rec := trace.NewFull()
		cfg, err := NewConfig(
			WithTopology(topo),
			WithPolicy(vehicle.PolicyCrossroads),
			WithSeed(29),
			WithNoise(plant.TestbedNoise()),
			WithCoordination(0),
			WithKernel(kernel),
			WithTrace(rec),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Collisions != 0 || res.Summary.BufferViolations != 0 {
			t.Errorf("kernel %v: %d collisions, %d buffer violations with coordination on",
				kernel, res.Summary.Collisions, res.Summary.BufferViolations)
		}
		if res.Incomplete != 0 {
			t.Errorf("kernel %v: %d incomplete journeys with coordination on", kernel, res.Incomplete)
		}
		received := 0
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindIMDigest {
				received++
			}
		}
		if received == 0 {
			t.Errorf("kernel %v: no im.digest events — coordination never engaged", kernel)
		}
	}
}

// TestCoordResultIndependentOfHorizon pins that a coordinated run ends
// when its fleet does: the IM timers (digest broadcasts, and lease sweeps
// under fault injection) stop at fleet completion on both kernels, so a
// longer horizon simulates nothing more. Summary, network totals, journey
// records, and the trace down to every DES event are identical under the
// derived horizon and under 2000 s and 4000 s ones.
func TestCoordResultIndependentOfHorizon(t *testing.T) {
	line3, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	topo := line3.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 20, 29)
	stall, _ := fault.Scenario("stall")
	for _, kernel := range []Kernel{KernelSerial, KernelParallel} {
		for _, faults := range []*fault.Schedule{nil, stall} {
			run := func(horizon float64) (Result, []trace.Event) {
				rec := trace.NewFull()
				cfg, err := NewConfig(
					WithTopology(topo),
					WithPolicy(vehicle.PolicyCrossroads),
					WithSeed(29),
					WithNoise(plant.TestbedNoise()),
					WithCoordination(0),
					WithKernel(kernel),
					WithFaults(faults),
					WithMaxSimTime(horizon),
					WithTrace(rec),
					WithDESTrace(),
				)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfg, arr)
				if err != nil {
					t.Fatal(err)
				}
				if res.Kernel != kernel.String() {
					t.Fatalf("ran on %q kernel, want %v", res.Kernel, kernel)
				}
				res.Summary.SchedulerWall = 0
				evs := append([]trace.Event(nil), rec.Events()...)
				trace.CanonicalizeWall(evs)
				return res, evs
			}
			name := kernel.String() + "/clean"
			if faults != nil {
				name = kernel.String() + "/stall"
			}
			want, wantEvs := run(0)
			if want.Incomplete != 0 {
				t.Fatalf("%s: %d incomplete journeys under the derived horizon", name, want.Incomplete)
			}
			for _, horizon := range []float64{2000, 4000} {
				got, gotEvs := run(horizon)
				if got.Summary != want.Summary {
					t.Errorf("%s horizon %v: summary differs:\n got %+v\nwant %+v",
						name, horizon, got.Summary, want.Summary)
				}
				if got.Network != want.Network {
					t.Errorf("%s horizon %v: network differs:\n got %+v\nwant %+v",
						name, horizon, got.Network, want.Network)
				}
				if len(got.Vehicles) != len(want.Vehicles) {
					t.Fatalf("%s horizon %v: %d vehicle records, want %d",
						name, horizon, len(got.Vehicles), len(want.Vehicles))
				}
				for i := range want.Vehicles {
					if got.Vehicles[i] != want.Vehicles[i] {
						t.Errorf("%s horizon %v: vehicle record %d differs:\n got %+v\nwant %+v",
							name, horizon, i, got.Vehicles[i], want.Vehicles[i])
					}
				}
				if len(gotEvs) != len(wantEvs) {
					t.Fatalf("%s horizon %v: %d trace events, want %d",
						name, horizon, len(gotEvs), len(wantEvs))
				}
				for i := range wantEvs {
					if gotEvs[i] != wantEvs[i] {
						t.Fatalf("%s horizon %v: trace event %d differs:\n got %+v\nwant %+v",
							name, horizon, i, gotEvs[i], wantEvs[i])
					}
				}
			}
		}
	}
}
