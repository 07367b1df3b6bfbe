GO ?= go

.PHONY: build test bench bench-grid bench-layers bench-report race vet fmt staticcheck check trace-demo corridor-demo grid-demo chaos-demo serve-demo policy-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race runs the full suite under the race detector — required for any
## change touching internal/parallel or the experiment drivers.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$'

## bench-grid times the Manhattan-grid workloads (5x5 and 10x10), reporting
## ns normalized per vehicle-crossing.
bench-grid:
	$(GO) test -bench 'BenchmarkGrid' -benchmem -run '^$$'

## LAYER_BENCH names the layer rungs, each timing one layer of the
## simulator alone: the reservation book's slot search
## (BookEarliestFeasible), the conflict-table build (ConflictTableBuild),
## one scheduler request under Crossroads and under the dot tile scheduler
## (SchedulerCrossroadsRequest, SchedulerDotRequest), all in the root
## package; in ./internal/intersection, one sample of the tile
## schedulers' sweep, a buffered scale-model body marked over the 8x8
## tile grid (TileGridMark); in ./internal/des, one tick of a DES ticker
## with an empty body, alone (Ticker) and with 40 far-future events
## pending, a 40-vehicle cell's pre-scheduled arrivals
## (TickerAmongEvents); one message sent and delivered through the
## kernel in ./internal/network
## (NetworkSendDeliver); in ./internal/sim, at a dense moment of a
## saturated scale-model run, the world's safety check, body and buffer
## overlap of every same-node vehicle pair (SafetyCheck), and one whole
## physics tick (PhysicsTick), plus one physics tick at a dense moment of a
## coordinated 3x3 grid run (PhysicsTickGrid); and in ./internal/server,
## one request's trip through a shard executive, injected and run event
## to event until its grant is delivered (ServerExecutiveStep).
LAYER_BENCH = BookEarliestFeasible|ConflictTableBuild|SchedulerCrossroadsRequest|SchedulerDotRequest|TileGridMark|Ticker|TickerAmongEvents|NetworkSendDeliver|SafetyCheck|PhysicsTick|PhysicsTickGrid|ServerExecutiveStep
## REPORT_BENCH is the benchmark artifact's set: the layer rungs plus the
## whole workloads, the sweep engine at one and all cores, the routed
## corridor and grids, E9's coordinated corridor, the fault matrix's mix
## column, and one reduced sweep per scheduler family.
REPORT_BENCH = $(LAYER_BENCH)|SweepParallel|Corridor|CorridorCoord|Grid|FaultMatrixMix|PolicySweep
BENCH_PKGS = . ./internal/intersection ./internal/des ./internal/network ./internal/sim ./internal/server

## bench-layers times the layer rungs. BENCHFLAGS passes extra flags, e.g.
## BENCHFLAGS='-benchtime 1x' for a one-iteration smoke run.
BENCHFLAGS ?=
bench-layers:
	$(GO) test -run '^$$' -bench '^Benchmark($(LAYER_BENCH))$$' -benchmem $(BENCHFLAGS) $(BENCH_PKGS)

## bench-report runs the artifact set REPORT_COUNT times through go test
## into a scratch file, then converts it (cmd/benchreport) into the first
## free BENCH_N.json, so the committed ones are never overwritten; each
## row is the median run, with the runs' ns/op range and count. A failing
## run writes no artifact and leaves its output in bench-report.txt. Run
## it on a multi-core host to record the sweep speedup: a single-core host
## times SweepParallel at workers=1 only.
REPORT_COUNT = 5
bench-report:
	@set -e; \
	n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	echo "bench-report: running $(REPORT_BENCH) x$(REPORT_COUNT)"; \
	$(GO) test -run '^$$' -bench '^Benchmark($(REPORT_BENCH))$$' -benchmem -count $(REPORT_COUNT) $(BENCH_PKGS) > bench-report.txt \
		|| { cat bench-report.txt; exit 1; }; \
	$(GO) run ./cmd/benchreport -out BENCH_$$n.json < bench-report.txt; \
	rm -f bench-report.txt

## policy-demo is the scheduler-registry acceptance gate: Crossroads and
## the dot, signalized and auction families each drive a 2x2 grid of
## routed journeys, then the scale-model rate sweep at the paper's ten
## rates. Like every crossroads-sim run, each command gates on the run
## verdict (sim.Result.Violations) and exits non-zero on any violation,
## naming the failing cells.
policy-demo:
	$(GO) run ./cmd/crossroads-sim -grid 2x2 -seglen 12 -n 60 -seed 42 -workers 0 -policy crossroads,dot,signalized,auction -policy-opt dot.grid=12 -policy-opt signalized.green=8
	$(GO) run ./cmd/crossroads-sim -scale -workers 0 -policy crossroads,dot,signalized,auction

## trace-demo runs a tiny traced sweep and validates the JSONL output
## against the schema — the end-to-end check for the observability layer.
trace-demo:
	$(GO) run ./cmd/crossroads-sim -n 8 -seed 7 -workers 1 -scale -trace trace-demo.jsonl
	$(GO) run ./cmd/tracecheck trace-demo.jsonl
	@rm -f trace-demo.jsonl

## corridor-demo exercises the multi-IM engine end to end: a traced
## 3-intersection corridor run validated against the trace schema, plus a
## 2x2 grid smoke run.
corridor-demo:
	$(GO) run ./cmd/crossroads-sim -corridor 3 -n 16 -seed 7 -scale -noise -trace corridor-demo.jsonl
	$(GO) run ./cmd/tracecheck corridor-demo.jsonl
	@rm -f corridor-demo.jsonl
	$(GO) run ./cmd/crossroads-sim -grid 2x2 -n 12 -seed 7 -scale -noise

## grid-demo runs the multi-IM engine end to end on a 3x3 grid with real
## inter-node segments and the IM-to-IM coordination plane on, as the
## benchmark's grid workload does, for vt-im, aim, crossroads and batch
## (batch joins the plane's backpressure, flow digests and green-wave
## floors through the shared VT core); crossroads-sim exits non-zero on
## any violation of the run verdict (sim.Result.Violations).
grid-demo:
	$(GO) run ./cmd/crossroads-sim -grid 3x3 -seglen 80 -n 60 -seed 42 -workers 0 -coord on -policy vt-im,aim,crossroads,batch

## chaos-demo runs the fault-injection robustness matrix (every named
## scenario x every policy x seeds 1-3) and fails on any violation of the
## run verdict (sim.Result.Violations; under scripted faults a failsafe
## stop is legal), then validates a traced mixed-fault cell against the
## trace schema.
chaos-demo:
	$(GO) run ./cmd/crossroads-sim -faults matrix -seed 1 -workers 0
	$(GO) run ./cmd/crossroads-sim -faults mix -seed 1 -workers 0 -trace chaos-demo.jsonl
	$(GO) run ./cmd/tracecheck chaos-demo.jsonl
	@rm -f chaos-demo.jsonl

## serve-demo is the serve-mode acceptance gate, in two acts. First a
## single-intersection server takes a closed-loop v1 burst; then a 2x2
## sharded server takes a v2 grid run of routed multi-leg journeys. In
## both, loadgen exits non-zero on any decode error, protocol error, or
## dropped connection, which fails the target with loadgen's status. The
## exit trap stops the running server and removes the binaries and
## sockets on every path, failures included.
serve-demo:
	$(GO) build -o serve-demo-bin ./cmd/crossroads-serve
	$(GO) build -o loadgen-demo-bin ./cmd/loadgen
	@rm -f serve-demo.sock serve-grid.sock
	@set -e; \
	SERVE_PID=; \
	stop_server() { \
		if [ -n "$$SERVE_PID" ]; then \
			kill -TERM $$SERVE_PID 2>/dev/null || true; \
			wait $$SERVE_PID || true; \
			SERVE_PID=; \
		fi; \
	}; \
	trap 'stop_server; rm -f serve-demo-bin loadgen-demo-bin serve-demo.sock serve-grid.sock' EXIT; \
	trap 'exit 1' INT TERM; \
	./serve-demo-bin -uds ./serve-demo.sock & \
	SERVE_PID=$$!; \
	sleep 1; \
	./loadgen-demo-bin -addr ./serve-demo.sock -mode closed -conns 4 -duration 5s; \
	stop_server; \
	./serve-demo-bin -uds ./serve-grid.sock -grid 2x2 -seglen 3 & \
	SERVE_PID=$$!; \
	sleep 1; \
	./loadgen-demo-bin -addr ./serve-grid.sock -grid 2x2 -conns 4 -rate 1 -duration 5s; \
	stop_server

## vet also covers crbench/, the benchmark's own module: the root ./...
## pattern skips it, yet it imports internal packages. Its only
## requirement is this repo, through a replace, so it vets offline.
vet:
	$(GO) vet ./...
	cd crbench && $(GO) vet ./...

## staticcheck runs honnef.co/go/tools over the whole module. The tool is
## not vendored, so the target fetches it via `go run` and needs network
## access; CI runs it on every push, offline checkouts fall back to
## `make vet`.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: vet fmt race
