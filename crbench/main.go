// Command crbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed wall-clock budget, split in two:
//
//   - serve: a crossroads-serve process built from this checkout serves
//     the workload's own traffic in wall time over protocol v2: vehicles
//     drawn as the simulated ones are, at the same input flows, each
//     asking at its transmission line and reporting its exit only once
//     the granted crossing has cleared, so the IM schedules against the
//     crossings it really has booked;
//   - sim: the workload's simulation cells (input flow × derived seed) run
//     back to back in this process, whole passes timed against a fixed
//     reference workload (see ref.go), and every simulated outcome is
//     checked for safety and for bit-identical repeats.
//
// run.sh builds both binaries and passes -serve-bin; a run is
//
//	bash crbench/run.sh --workload single --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"crossroads/internal/sweep"
)

// segLen is the road between adjacent grid intersections (m): the
// scale-model spacing of the repository's grid benchmarks.
const segLen = 0.8

// setupReps is how many times a run sets up from scratch. Every set-up
// but the last, whose server goes on to serve, is costed in CPU seconds;
// setup_s is their median.
const setupReps = 16

// fleet is the number of vehicles in every simulation cell.
const fleet = 40

// workload is one input mix. Every simulated cell and every served
// request uses the 1/10-scale testbed geometry.
type workload struct {
	policy string
	// grid is n for an n×n Manhattan grid of intersections, with the
	// IM-to-IM coordination plane on; 0 means one intersection.
	grid int
	// rates are the input flows (vehicles per entry lane per second).
	// Each rate runs subSeeds simulated cells, each with its own seed
	// derived from the run's seed, and takes an equal slice of the served
	// stream.
	rates    []float64
	subSeeds int
}

// The workloads, and why each is here:
//
//   - single: the paper's technique on its own ground, one intersection
//     under Crossroads across the whole Fig. 7.2 flow range, light to
//     saturated (served as sixteen such intersections, a stream each).
//   - grid: the multi-IM engine, routed multi-leg journeys over a 3×3
//     grid with the IM-to-IM coordination plane on, served by nine
//     linked shards behind one listener.
//   - dot: the space-time tile scheduler, the costliest policy per
//     request; a change to its rasterise-and-scan path moves this
//     workload while single and grid bypass it.
var workloads = map[string]workload{
	"single": {policy: "crossroads", rates: sweep.PaperRates(), subSeeds: 50},
	"grid":   {policy: "crossroads", grid: 3, rates: []float64{0.3, 0.4, 0.5}, subSeeds: 36},
	"dot":    {policy: "dot", rates: []float64{0.1, 0.2, 0.3, 0.4}, subSeeds: 120},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: single, grid or dot")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 30, "measured wall time: a third serving, the rest simulating")
		traceArg = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer ones")
		serveBin = flag.String("serve-bin", "", "crossroads-serve binary built from this checkout")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *serveBin == "" {
		fatalf("-serve-bin is required")
	}
	if *seconds < 4 || *traceArg < 0 || *traceArg > 1 {
		fatalf("want --seconds >= 4 and --trace 0 or 1")
	}
	res, err := run(wl, *serveBin, *seed, time.Duration(*seconds*float64(time.Second)), *traceArg == 1)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crbench: "+format+"\n", args...)
	os.Exit(1)
}

// run sets the workload up setupReps times, serves the open-loop stream
// through the last server it started, then simulates.
func run(wl workload, serveBin string, seed int64, budget time.Duration, traced bool) (result, error) {
	var (
		cells []*cell
		js    []*journey
		srv   *server
		conns []*session
		// A set-up costs the CPU time this process spends on it plus the
		// server's, not its wall time: on a shared host the wall time of
		// starting a process doubled for minutes at a time with the
		// neighbours' load, while the CPU time held within a few percent.
		setupCPU []float64
		repCPU   float64 // this process's share of the latest set-up
	)
	// Only the last set-up serves; the earlier servers, and any left by
	// an error, are killed without draining, and their CPU time (start,
	// handshakes, then idle until killed) completes their set-up's cost.
	discard := func() {
		closeAll(conns)
		if srv != nil {
			srv.kill()
			ps := srv.cmd.ProcessState
			setupCPU = append(setupCPU, repCPU+(ps.UserTime()+ps.SystemTime()).Seconds())
		}
		conns, srv = nil, nil
	}
	defer discard()

	serveBudget := budget / 3
	var setupInputs, setupServer []float64
	for i := 0; i < setupReps; i++ {
		discard()
		c0 := cpuNow()
		t0 := time.Now()
		var err error
		if cells, err = buildCells(wl, seed); err != nil {
			return result{}, err
		}
		if js, err = buildSchedule(wl, seed, serveBudget); err != nil {
			return result{}, err
		}
		t1 := time.Now()
		if srv, err = startServer(serveBin, wl, seed); err != nil {
			return result{}, err
		}
		if conns, err = dialAll(srv.addr, numConns); err != nil {
			return result{}, err
		}
		t2 := time.Now()
		repCPU = cpuNow() - c0
		setupInputs = append(setupInputs, t1.Sub(t0).Seconds())
		setupServer = append(setupServer, t2.Sub(t1).Seconds())
	}

	// The measured budget runs from here; simulating takes what serving
	// and its drain leave of it.
	deadline := time.Now().Add(budget)
	cs := serve(conns, js, wl.grid > 0, traced)
	closeAll(conns)
	ss, err := srv.stop()
	conns, srv = nil, nil
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "crbench: served %d vehicles, %d requests, %d grants (%d sampled) (%.2f crossings held per grant), %d defers: %d unfinished, %d bad replies, %d stray, %d send failures; server shed=%d protocol_errors=%d\n",
		len(js), cs.requests, cs.grants, len(cs.fromSend), cs.occupancy, cs.defers, cs.unfinished, cs.badReply, cs.stray, cs.sendFailures, ss.shed, ss.protocolErrors)

	// One P from here: the simulator is single-threaded, and letting the
	// collector spread onto a second CPU of a shared host made pass times
	// swing by a fifth with the neighbours' load. Serving keeps every P,
	// so the client's reader and driver goroutines never queue behind
	// each other.
	runtime.GOMAXPROCS(1)
	sm, err := simulate(cells, deadline, traced)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "crbench: simulated %d cells x %d passes: %d failures, %d non-repeating passes\n",
		len(cells), len(sm.cycleSecs), sm.failed, sm.nonRepeating)

	serveFailed := int64(cs.unfinished)
	res := result{
		Correct: sm.failed == 0 && sm.nonRepeating == 0 && serveFailed == 0 && cs.stray == 0 &&
			cs.badReply == 0 && cs.sendFailures == 0 && cs.protocolErrors == 0 && ss.shed == 0 && ss.protocolErrors == 0,
		Attempted: sm.attempted + int64(len(js)),
		Failed:    sm.failed + serveFailed,
		Metrics:   map[string]metric{},
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !traced {
		put("sim_veh_per_ref", "veh/ref", sm.vehPerRef())
		put("sim_wait_s", "s", sm.meanWait())
		put("sim_tput_veh_s", "1/s", sm.throughput())
		put("grant_p50_ms", "ms", cs.fromSend.pct(0.50))
		put("setup_s", "s", median(setupCPU))
		return res, nil
	}
	put("des_events", "count", float64(sm.counts.ByKind["des.event"]))
	put("net_msgs", "count", float64(sm.counts.ByKind["msg.send"]))
	put("im_requests", "count", float64(sm.counts.ByKind["im.request"]))
	put("book_adds", "count", float64(sm.counts.ByKind["book.add"]))
	put("sim_ns_per_des_event", "ns", median(sm.tracedCellSecs)/float64(sm.counts.ByKind["des.event"])*1e9)
	put("sim_sched_ms", "ms", median(sm.schedSecs)*1e3)
	put("sim_trace_overhead", "ratio", sm.tracedSecs/median(sm.tracedCellSecs))
	put("ref_ms", "ms", median(sm.refSecs)*1e3)
	put("serve_frames_out", "count", float64(ss.framesOut))
	put("serve_cpu_us_per_req", "us", ss.cpu.Seconds()/float64(cs.requests)*1e6)
	put("serve_occupancy", "count", cs.occupancy)
	put("grant_p99_ms", "ms", cs.fromSend.pct(0.99))
	put("grant_p50_from_due_ms", "ms", cs.fromDue.pct(0.50))
	put("send_lag_p99_ms", "ms", cs.sendLag.pct(0.99))
	put("client_codec_ns_per_frame", "ns", cs.codecNsPerFrame)
	put("setup_inputs_ms", "ms", median(setupInputs)*1e3)
	put("setup_server_ms", "ms", median(setupServer)*1e3)
	return res, nil
}

// cpuNow is the CPU time, user plus system, this process has used (s).
func cpuNow() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// median returns the middle of xs (the mean of the two middles for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// samples is a set of durations in milliseconds.
type samples []float64

// pct returns the nearest-rank p-quantile.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
