package main

import (
	"reflect"
	"strings"
	"testing"

	"crossroads/internal/metrics"
)

// capturedRun is `go test -run '^$' -bench ... -benchmem . ./internal/sim`
// output from a 2-core host: a -2 suffix on every name, sub-benchmarks,
// and custom units, which go test prints before B/op. The last root line
// is edited to put a custom unit after allocs/op as well, an order other
// tools write, and the sim line has its suffix dropped, as go test prints
// names at GOMAXPROCS=1.
const capturedRun = `goos: linux
goarch: amd64
pkg: crossroads
cpu: Intel(R) Xeon(R) Processor
BenchmarkAblationBufferSweep/rtd50ms-2         	       1	  64105511 ns/op	         0.04445 vtim-tput	 3123632 B/op	   48205 allocs/op
BenchmarkBookEarliestFeasible-2                	  275934	      3742 ns/op	       0 B/op	       0 allocs/op
BenchmarkCorridor-2                            	     225	   5117496 ns/op	        69.00 crossings	         0.3062 journey-tput	  809164 B/op	   13967 allocs/op
BenchmarkGrid/5x5-2                            	      40	  28727252 ns/op	 3067672 B/op	   48928 allocs/op	       404.0 crossings	     71107 ns/vehicle-crossing
PASS
ok  	crossroads	31.203s
goos: linux
goarch: amd64
pkg: crossroads/internal/sim
cpu: Intel(R) Xeon(R) Processor
BenchmarkSafetyCheck                           	  254410	      4594 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	crossroads/internal/sim	1.722s
`

func TestParseCapturedRun(t *testing.T) {
	rows, err := parse(strings.NewReader(capturedRun))
	if err != nil {
		t.Fatal(err)
	}
	want := []metrics.BenchMetric{
		{Name: "AblationBufferSweep/rtd50ms", NsPerOp: 64105511, BytesPerOp: 3123632, AllocsPerOp: 48205, N: 1,
			Extra: map[string]float64{"vtim-tput": 0.04445}},
		{Name: "BookEarliestFeasible", NsPerOp: 3742, N: 275934},
		{Name: "Corridor", NsPerOp: 5117496, BytesPerOp: 809164, AllocsPerOp: 13967, N: 225,
			Extra: map[string]float64{"crossings": 69, "journey-tput": 0.3062}},
		{Name: "Grid/5x5", NsPerOp: 28727252, BytesPerOp: 3067672, AllocsPerOp: 48928, N: 40,
			Extra: map[string]float64{"crossings": 404, "ns/vehicle-crossing": 71107}},
		{Name: "SafetyCheck", NsPerOp: 4594, N: 254410},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows:\n got %+v\nwant %+v", rows, want)
	}
}

// TestParseRefusesFailedRun: a benchmark that fails its health check
// makes go test print --- FAIL and FAIL lines. The rows measured before
// the failure must not become an artifact.
func TestParseRefusesFailedRun(t *testing.T) {
	failed := strings.Replace(capturedRun, "PASS\nok  \tcrossroads/internal/sim\t1.722s\n",
		"--- FAIL: BenchmarkSafetyCheck\n    safety_check_test.go:301: 1 collisions\nFAIL\nexit status 1\nFAIL\tcrossroads/internal/sim\t1.722s\n", 1)
	if failed == capturedRun {
		t.Fatal("fixture edit did not apply")
	}
	if _, err := parse(strings.NewReader(failed)); err == nil || !strings.Contains(err.Error(), "--- FAIL: BenchmarkSafetyCheck") {
		t.Fatalf("err = %v, want the first failure line", err)
	}
	// A package that does not build prints only a FAIL line.
	if _, err := parse(strings.NewReader("FAIL\tcrossroads [build failed]\n")); err == nil {
		t.Fatal("build failure accepted")
	}
}

// TestParseRefusesEmptyRun: a -bench pattern that matches nothing still
// exits 0 under go test; the converter must not write an empty artifact.
func TestParseRefusesEmptyRun(t *testing.T) {
	for _, in := range []string{"", "PASS\nok  \tcrossroads\t0.012s\n?   \tcrossroads/cmd/imviz\t[no test files]\n"} {
		if _, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("empty run %q accepted", in)
		}
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-2\t10\tNaNish ns/op\n")); err == nil {
		t.Fatal("unparsable value accepted")
	}
}

// repeatedRun is `go test -run '^$' -bench '^Benchmark(Ticker|NetworkSendDeliver)$'
// -benchmem -count 3 ./internal/des ./internal/network` output from a
// 2-core host, with the last Ticker line's allocation counts edited so
// that the median run's fields can be told apart.
const repeatedRun = `goos: linux
goarch: amd64
pkg: crossroads/internal/des
cpu: Intel(R) Xeon(R) Processor
BenchmarkTicker-2   	31281493	        37.48 ns/op	       0 B/op	       0 allocs/op
BenchmarkTicker-2   	35793091	        40.03 ns/op	       0 B/op	       0 allocs/op
BenchmarkTicker-2   	27575642	        38.97 ns/op	       8 B/op	       1 allocs/op
PASS
ok  	crossroads/internal/des	3.859s
goos: linux
goarch: amd64
pkg: crossroads/internal/network
cpu: Intel(R) Xeon(R) Processor
BenchmarkNetworkSendDeliver-2   	 7849224	       186.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetworkSendDeliver-2   	 7281242	       162.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetworkSendDeliver-2   	 7145463	       165.3 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	crossroads/internal/network	5.334s
`

// TestParseFoldsRepeatedRuns: a -count 3 run converts to one row per
// benchmark, the median run's, with the runs' ns/op range and count.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	rows, err := parse(strings.NewReader(repeatedRun))
	if err != nil {
		t.Fatal(err)
	}
	want := []metrics.BenchMetric{
		{Name: "Ticker", NsPerOp: 38.97, BytesPerOp: 8, AllocsPerOp: 1, N: 27575642,
			Count: 3, NsPerOpMin: 37.48, NsPerOpMax: 40.03},
		{Name: "NetworkSendDeliver", NsPerOp: 165.3, N: 7145463,
			Count: 3, NsPerOpMin: 162.0, NsPerOpMax: 186.3},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows:\n got %+v\nwant %+v", rows, want)
	}
}

// TestFoldEvenCountTakesMiddleMean: with an even count the median ns/op
// is the mean of the two middle runs, and the row is the lower one's.
func TestFoldEvenCountTakesMiddleMean(t *testing.T) {
	got := fold([]metrics.BenchMetric{
		{Name: "X", NsPerOp: 40, N: 1},
		{Name: "Y", NsPerOp: 7, N: 9},
		{Name: "X", NsPerOp: 10, N: 2},
		{Name: "X", NsPerOp: 20, N: 3},
		{Name: "X", NsPerOp: 30, N: 4},
	})
	want := []metrics.BenchMetric{
		{Name: "X", NsPerOp: 25, N: 3, Count: 4, NsPerOpMin: 10, NsPerOpMax: 40},
		{Name: "Y", NsPerOp: 7, N: 9},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold:\n got %+v\nwant %+v", got, want)
	}
}
