// crossroads-serve hosts the intersection manager behind the versioned wire
// protocol (internal/protocol) on TCP and/or Unix-socket listeners. It is
// the serve-mode counterpart of crossroads-sim: the same schedulers, carved
// out from behind the DES and exposed to real clients.
//
// Wall mode answers live clients on the wall clock; replay mode
// deterministically replays each connection's timestamped stream, which is
// what the conformance bridge and offline tooling use.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crossroads/internal/cliflags"
	"crossroads/internal/im"
	"crossroads/internal/protocol"
	"crossroads/internal/server"
	"crossroads/internal/trace"

	_ "crossroads/internal/im/builtin" // register the built-in policies
)

func main() {
	var (
		tcpAddr   = flag.String("listen", "", "TCP listen address (e.g. 127.0.0.1:9040); empty disables TCP")
		udsPath   = flag.String("uds", "", "Unix socket path; empty disables the Unix listener")
		policy    = flag.String("policy", "crossroads", fmt.Sprintf("scheduler policy %v", im.Policies()))
		geometry  = flag.String("geometry", "scale-model", "intersection geometry: scale-model or full-scale")
		clock     = flag.String("clock", "wall", "clock mode: wall (live) or replay (deterministic)")
		seed      = flag.Int64("seed", 1, "RNG seed for the scheduler and network streams")
		modelCost = flag.Bool("model-cost", false, "charge the calibrated IM computation-cost model in scheduler time")
		sendQueue = flag.Int("send-queue", 0, "per-connection send queue in frames (0 = default)")
		maxConns  = flag.Int("max-conns", 0, "concurrent connection limit (0 = default)")
		traceOut  = flag.String("trace", "", "write connection-lifecycle trace JSONL to this file on exit")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for connections to drain")
		corridor  = flag.Int("corridor", 0, "serve an N-intersection east-west corridor: one IM shard per node, routed by v2 batch frames")
		gridArg   = flag.String("grid", "", "serve an RxC Manhattan grid (e.g. 2x2): one IM shard per node, routed by v2 batch frames")
		segLen    = flag.Float64("seglen", 0, "road between adjacent intersections (m), advertised to v2 clients in the topology frame")
	)
	coordFlags := cliflags.AddCoord(flag.CommandLine)
	flag.Parse()

	coordOn, coordPeriod, err := coordFlags.Parse()
	if err != nil {
		fatalf("%v", err)
	}
	topoFlags := cliflags.Topology{Corridor: *corridor, Grid: *gridArg, SegLen: *segLen}
	topo, err := topoFlags.Build()
	if err != nil {
		fatalf("%v", err)
	}
	if coordOn && topo == nil {
		fatalf("-coord on needs a -corridor/-grid topology (a single IM has no peers)")
	}

	var clockMode protocol.ClockMode
	switch *clock {
	case "wall":
		clockMode = protocol.ClockWall
	case "replay":
		clockMode = protocol.ClockReplay
	default:
		fatalf("unknown clock mode %q (want wall or replay)", *clock)
	}
	var geo protocol.Geometry
	switch *geometry {
	case "scale-model":
		geo = protocol.GeometryScaleModel
	case "full-scale":
		geo = protocol.GeometryFullScale
	default:
		fatalf("unknown geometry %q (want scale-model or full-scale)", *geometry)
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewFull()
	}

	s, err := server.New(server.Config{
		Policy:      *policy,
		Geometry:    geo,
		Clock:       clockMode,
		Seed:        *seed,
		ModelCost:   *modelCost,
		SendQueue:   *sendQueue,
		MaxConns:    *maxConns,
		Trace:       rec,
		Topology:    topo,
		Coord:       coordOn,
		CoordPeriod: coordPeriod,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *tcpAddr == "" && *udsPath == "" {
		fatalf("no listeners: pass -listen and/or -uds")
	}
	if *tcpAddr != "" {
		addr, err := s.ListenTCP(*tcpAddr)
		if err != nil {
			fatalf("tcp listen: %v", err)
		}
		fmt.Printf("crossroads-serve: tcp %s\n", addr)
	}
	if *udsPath != "" {
		addr, err := s.ListenUnix(*udsPath)
		if err != nil {
			fatalf("unix listen: %v", err)
		}
		fmt.Printf("crossroads-serve: unix %s\n", addr)
	}
	if err := s.Start(); err != nil {
		fatalf("start: %v", err)
	}
	coordLabel := "off"
	if coordOn {
		coordLabel = "on"
	}
	fmt.Printf("crossroads-serve: policy=%s geometry=%s clock=%s seed=%d protocol=v%d shards=%d coord=%s\n",
		*policy, geo, clockMode, *seed, protocol.MaxVersion, s.NumShards(), coordLabel)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Printf("crossroads-serve: %v — draining\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "crossroads-serve: forced shutdown: %v\n", err)
	}
	st := s.Stats()
	fmt.Printf("crossroads-serve: accepted=%d shed=%d protocol_errors=%d frames_in=%d frames_out=%d\n",
		st.Accepted, st.Shed, st.ProtocolErrors, st.FramesIn, st.FramesOut)
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("trace: %v", err)
		}
		if err := rec.WriteJSONL(f, "serve"); err != nil {
			fatalf("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("trace: %v", err)
		}
		fmt.Printf("crossroads-serve: trace written to %s\n", *traceOut)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crossroads-serve: "+format+"\n", args...)
	os.Exit(1)
}
