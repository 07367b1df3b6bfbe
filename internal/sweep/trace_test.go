package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"crossroads/internal/topology"
	"crossroads/internal/trace"
)

func tracedConfig(workers int) Config {
	return Config{
		Rates:       []float64{0.1, 0.6},
		NumVehicles: 12,
		Seed:        42,
		ScaleModel:  true,
		Policies:    []string{"vt-im", "crossroads"},
		Workers:     workers,
		TraceFull:   true,
	}
}

// tracedExperiment is one small traced configuration of an experiment,
// run at a given worker count, with the run labels its cells must carry
// in order (consecutive repeats collapsed: scale repetitions share their
// scenario's label) and whether it records the kernel event firehose.
type tracedExperiment struct {
	name   string
	run    func(workers int) (Runs, error)
	labels []string
	des    bool
}

func tracedExperiments(t *testing.T) []tracedExperiment {
	grid, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var scaleLabels []string
	for scen := 1; scen <= 10; scen++ {
		scaleLabels = append(scaleLabels, fmt.Sprintf("scenario=%d/crossroads", scen))
	}
	return []tracedExperiment{
		{"rate", func(workers int) (Runs, error) {
			res, err := Run(tracedConfig(workers))
			return res.Runs, err
		}, []string{"rate=0.1/vt-im", "rate=0.1/crossroads", "rate=0.6/vt-im", "rate=0.6/crossroads"}, false},
		{"faults", func(workers int) (Runs, error) {
			res, err := RunFaultMatrix(FaultMatrixConfig{
				Scenarios:   []string{"stall"},
				Policies:    []string{"crossroads"},
				Seeds:       []int64{1, 2},
				NumVehicles: 8,
				Workers:     workers,
				TraceFull:   true,
			})
			return res.Runs, err
		}, []string{"clean/crossroads/seed=1", "clean/crossroads/seed=2", "stall/crossroads/seed=1", "stall/crossroads/seed=2"}, false},
		{"topology", func(workers int) (Runs, error) {
			res, err := RunTopology(TopoConfig{
				Topology:    grid.WithSegmentLen(0.8),
				NumVehicles: 8,
				Policies:    []string{"vt-im", "crossroads"},
				Seed:        5,
				ScaleModel:  true,
				Coord:       true,
				Workers:     workers,
				TraceFull:   true,
				TraceDES:    true,
			})
			return res.Runs, err
		}, []string{"grid-2x2/vt-im", "grid-2x2/crossroads"}, true},
		{"scale", func(workers int) (Runs, error) {
			res, err := RunScale(ScaleConfig{
				Repetitions: 2,
				Seed:        7,
				Policies:    []string{"crossroads"},
				Workers:     workers,
				TraceFull:   true,
			})
			return res.Runs, err
		}, scaleLabels, false},
	}
}

// readTrace writes the runs' merged trace and reads it back with the
// wall-clock field canonicalized.
func readTrace(t *testing.T, runs Runs, path string) []trace.Event {
	t.Helper()
	if err := runs.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return trace.CanonicalizeWall(evs)
}

// TestSweepTraceIdenticalAcrossWorkerCounts pins the observability
// contract of the parallel engine for every experiment: the merged,
// wall-canonicalized trace of a seeded run is identical whether the cells
// ran serially or concurrently, and each cell's events carry its run
// label, the only way to tell cells apart in the merged file. Cell
// recorders are private per goroutine and merged in cell order, so
// nothing about scheduling may leak into the stream.
func TestSweepTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, exp := range tracedExperiments(t) {
		t.Run(exp.name, func(t *testing.T) {
			serial, err := exp.run(1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := exp.run(4)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			streams := [2][]trace.Event{
				readTrace(t, serial, filepath.Join(dir, "serial.jsonl")),
				readTrace(t, par, filepath.Join(dir, "par.jsonl")),
			}
			if len(streams[0]) == 0 {
				t.Fatal("empty trace")
			}
			if len(streams[0]) != len(streams[1]) {
				t.Fatalf("event counts diverge: serial %d, parallel %d", len(streams[0]), len(streams[1]))
			}
			for i := range streams[0] {
				if streams[0][i] != streams[1][i] {
					t.Fatalf("event %d diverges:\nserial   %+v\nparallel %+v", i, streams[0][i], streams[1][i])
				}
			}
			var labels []string
			for _, ev := range streams[0] {
				if len(labels) == 0 || labels[len(labels)-1] != ev.Run {
					labels = append(labels, ev.Run)
				}
			}
			if !slices.Equal(labels, exp.labels) {
				t.Errorf("run labels %q, want %q", labels, exp.labels)
			}
			// The merged summaries must agree too (ring-independent counters).
			s, p := serial.TraceSummary(), par.TraceSummary()
			if s.Total != p.Total || s.IMQueueHighWater != p.IMQueueHighWater {
				t.Errorf("summaries diverge: serial %+v, parallel %+v", s, p)
			}
			if got := s.ByKind[trace.KindDESEvent] > 0; got != exp.des {
				t.Errorf("kernel events recorded: %v, want %v", got, exp.des)
			}
		})
	}
}

// TestSweepTraceValidates checks the exported multi-cell file against the
// schema validator, run labels included.
func TestSweepTraceValidates(t *testing.T) {
	res, err := Run(tracedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := res.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, sum, err := trace.ValidateJSONL(f)
	if err != nil {
		t.Fatalf("sweep trace failed validation: %v", err)
	}
	if want := res.TraceSummary().Total; n != want {
		t.Errorf("validated %d events, recorders hold %d", n, want)
	}
	if sum.ByKind[trace.KindSimSpawn] == 0 {
		t.Error("no spawn events in sweep trace")
	}
}
