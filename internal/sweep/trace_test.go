package sweep

import (
	"os"
	"path/filepath"
	"testing"

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

// TestSweepTraceIdenticalAcrossWorkerCounts pins the observability
// contract of the parallel engine: the merged, wall-canonicalized trace of
// a seeded sweep is identical whether the cells ran serially or
// concurrently. Cell recorders are private per goroutine and merged in
// cell order, so nothing about scheduling may leak into the stream.
func TestSweepTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	serial, err := Run(tracedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(tracedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "serial.jsonl"), filepath.Join(dir, "par.jsonl")}
	if err := serial.WriteTrace(paths[0]); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteTrace(paths[1]); err != nil {
		t.Fatal(err)
	}
	var streams [2][]trace.Event
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = trace.CanonicalizeWall(evs)
	}
	if len(streams[0]) == 0 {
		t.Fatal("empty sweep trace")
	}
	if len(streams[0]) != len(streams[1]) {
		t.Fatalf("event counts diverge: serial %d, parallel %d", len(streams[0]), len(streams[1]))
	}
	for i := range streams[0] {
		if streams[0][i] != streams[1][i] {
			t.Fatalf("event %d diverges:\nserial   %+v\nparallel %+v", i, streams[0][i], streams[1][i])
		}
	}
	// The merged summaries must agree too (ring-independent counters).
	if s, p := serial.TraceSummary(), par.TraceSummary(); s.Total != p.Total || s.IMQueueHighWater != p.IMQueueHighWater {
		t.Errorf("summaries diverge: serial %+v, parallel %+v", s, p)
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
