package metrics

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchMetric is one measured quantity from a benchmark run.
type BenchMetric struct {
	// Name identifies the benchmark (e.g. "BookEarliestFeasible") or a
	// sub-case ("SweepParallel/workers=4").
	Name string `json:"name"`
	// NsPerOp is the measured wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp carry the allocation profile when the
	// benchmark reports memory (zero otherwise).
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// N is how many iterations the harness settled on.
	N int `json:"n"`
	// Extra holds custom b.ReportMetric-style values keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Count is how many runs of the benchmark (go test -count) the row
	// folds, when more than one: NsPerOp is then their median ns/op,
	// NsPerOpMin and NsPerOpMax their range, and the other fields are the
	// median run's. A row from a single run leaves all three zero.
	Count      int     `json:"count,omitempty"`
	NsPerOpMin float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`
}

// BenchReport is the machine-readable benchmark artifact (BENCH_*.json)
// committed alongside the code so performance changes are reviewable.
type BenchReport struct {
	// Label names the change being measured (e.g. "parallel-engine+book-cache").
	Label string `json:"label"`
	// GoOS/GoArch/NumCPU record the environment the numbers came from —
	// speedup claims are meaningless without the core count.
	GoOS    string        `json:"goos"`
	GoArch  string        `json:"goarch"`
	NumCPU  int           `json:"num_cpu"`
	Metrics []BenchMetric `json:"metrics"`
	// Notes records measurement caveats (e.g. loadgen's note that its
	// latency percentiles stop at the run deadline).
	Notes []string `json:"notes,omitempty"`
}

// Speedup returns metric a's ns/op divided by metric b's — how many times
// faster b is than a. It errors if either name is missing or b is zero.
func (r BenchReport) Speedup(a, b string) (float64, error) {
	find := func(name string) (BenchMetric, error) {
		for _, m := range r.Metrics {
			if m.Name == name {
				return m, nil
			}
		}
		return BenchMetric{}, fmt.Errorf("metrics: no benchmark %q in report", name)
	}
	ma, err := find(a)
	if err != nil {
		return 0, err
	}
	mb, err := find(b)
	if err != nil {
		return 0, err
	}
	if mb.NsPerOp == 0 {
		return 0, fmt.Errorf("metrics: benchmark %q has zero ns/op", b)
	}
	return ma.NsPerOp / mb.NsPerOp, nil
}

// WriteFile serializes the report as indented JSON, newline-terminated.
// Duplicate metric names are rejected: Speedup resolves metrics by name,
// so a report with two entries under one name is ambiguous (as a
// `go test -count 2` run converted whole would be).
func (r BenchReport) WriteFile(path string) error {
	seen := make(map[string]bool, len(r.Metrics))
	for _, m := range r.Metrics {
		if seen[m.Name] {
			return fmt.Errorf("metrics: duplicate benchmark name %q in report", m.Name)
		}
		seen[m.Name] = true
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchReport loads a report written by WriteFile.
func ReadBenchReport(path string) (BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchReport{}, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return BenchReport{}, fmt.Errorf("metrics: parsing %s: %w", path, err)
	}
	return r, nil
}
