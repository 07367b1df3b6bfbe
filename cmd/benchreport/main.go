// Command benchreport converts `go test -bench` output into the
// machine-readable benchmark artifact (BENCH_*.json) committed alongside
// code changes. It defines no workload of its own: every benchmarked
// workload lives in a test suite, and this command only reads their result
// lines.
//
// Usage:
//
//	go test -run '^$' -bench <regexp> -benchmem <packages> | benchreport -out BENCH_N.json [-label text]
//
// Each result line (BenchmarkName-P  N  value unit ...) becomes one row,
// named without the "Benchmark" prefix and the -P GOMAXPROCS suffix.
// ns/op, B/op and allocs/op fill the fixed fields; every other unit (the
// values a benchmark reports with b.ReportMetric) goes into Extra under
// its unit name. The result lines of one benchmark run several times
// (go test -count) fold into one row: the median run's, with the median
// ns/op, and the min, the max and the count of the runs' ns/op. The
// input is echoed to stdout as it is read, so a pipe
// still shows the run. A run with a FAIL line, or with no result line, is
// refused and writes nothing. -out is required, so a bare run cannot
// overwrite a committed artifact; `make bench-report` picks the first free
// BENCH_N.json.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"crossroads/internal/metrics"
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
	rows, err := parse(io.TeeReader(os.Stdin, os.Stdout))
	if err == nil {
		// The converter reads the benchmarks through a pipe, so it runs
		// on the host that measured them.
		rep := metrics.BenchReport{
			Label:   *label,
			GoOS:    runtime.GOOS,
			GoArch:  runtime.GOARCH,
			NumCPU:  runtime.NumCPU(),
			Metrics: rows,
		}
		err = rep.WriteFile(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Printf("benchreport: wrote %d rows to %s (%d cores)\n", len(rows), *out, runtime.NumCPU())
}

// procSuffix is the -P GOMAXPROCS suffix go test appends to a benchmark
// name when P > 1.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parse reads go test output to the end and returns one row per benchmark
// result line. It fails on a run that reports a failure anywhere or has no
// result line at all.
func parse(r io.Reader) ([]metrics.BenchMetric, error) {
	var rows []metrics.BenchMetric
	var failed string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if failed == "" && (strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL")) {
			failed = line
		}
		m, ok, err := parseResult(line)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, m)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if failed != "" {
		return nil, fmt.Errorf("benchmark run failed: %s", failed)
	}
	if len(rows) == 0 {
		return nil, errors.New("no benchmark results in input")
	}
	return fold(rows), nil
}

// fold merges the rows that share a name into one, in order of first
// appearance. A name with one row keeps it as it is. For several, the
// row is the median run's (sorted by ns/op, the lower middle one for an
// even count), its NsPerOp the median ns/op (the mean of the two middle
// ones for an even count), with Count, NsPerOpMin and NsPerOpMax set.
func fold(rows []metrics.BenchMetric) []metrics.BenchMetric {
	runs := make(map[string][]metrics.BenchMetric)
	var names []string
	for _, m := range rows {
		if _, ok := runs[m.Name]; !ok {
			names = append(names, m.Name)
		}
		runs[m.Name] = append(runs[m.Name], m)
	}
	out := make([]metrics.BenchMetric, 0, len(names))
	for _, name := range names {
		rs := runs[name]
		n := len(rs)
		if n == 1 {
			out = append(out, rs[0])
			continue
		}
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		m := rs[(n-1)/2]
		m.NsPerOp = (rs[(n-1)/2].NsPerOp + rs[n/2].NsPerOp) / 2
		m.Count, m.NsPerOpMin, m.NsPerOpMax = n, rs[0].NsPerOp, rs[n-1].NsPerOp
		out = append(out, m)
	}
	return out
}

// parseResult parses one benchmark result line; ok is false for any other
// line.
func parseResult(line string) (m metrics.BenchMetric, ok bool, err error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return m, false, nil
	}
	if m.N, err = strconv.Atoi(f[1]); err != nil {
		return m, false, nil
	}
	m.Name = procSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return m, false, fmt.Errorf("%s: value %q: %v", f[0], f[i], err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			m.NsPerOp = v
		case "B/op":
			m.BytesPerOp = int64(v)
		case "allocs/op":
			m.AllocsPerOp = int64(v)
		default:
			if m.Extra == nil {
				m.Extra = make(map[string]float64)
			}
			m.Extra[unit] = v
		}
	}
	return m, true, nil
}
