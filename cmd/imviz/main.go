// Command imviz renders an ASCII top-down animation of the intersection
// while one of the IM policies manages a traffic scenario — a quick way to
// watch the protocols behave (dips, dwells, stop-and-go, crossings).
//
// Usage:
//
//	imviz [-policy crossroads] [-scenario 1..10] [-rate R -n N] [-fps 10] [-quiet]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"crossroads/internal/geom"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/sim"
	"crossroads/internal/traffic"
)

const (
	cols = 61
	rows = 31
)

func main() {
	policyName := flag.String("policy", "crossroads", "registered IM policy (e.g. crossroads, vt-im, aim)")
	scenario := flag.Int("scenario", 1, "scale-model scenario 1..10 (ignored when -rate is set)")
	rate := flag.Float64("rate", 0, "Poisson rate (car/s/lane); 0 uses -scenario")
	n := flag.Int("n", 20, "vehicles for -rate workloads")
	fps := flag.Float64("fps", 10, "animation frames per simulated second")
	quiet := flag.Bool("quiet", false, "render nothing; print only the summary")
	trace := flag.String("trace", "", "also write a CSV time-series of vehicle states to this file")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	var arrivals []traffic.Arrival
	var err error
	if *rate > 0 {
		arrivals, err = traffic.Poisson(traffic.PoissonConfig{
			Rate:         *rate,
			NumVehicles:  *n,
			LanesPerRoad: 1,
			Mix:          traffic.DefaultTurnMix(),
			Params:       kinematics.ScaleModelParams(),
		}, rand.New(rand.NewSource(*seed)))
	} else {
		arrivals, err = traffic.ScaleScenario(*scenario, rand.New(rand.NewSource(*seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "imviz:", err)
		os.Exit(1)
	}

	interCfg := intersection.ScaleModelConfig()
	every := int(1.0 / (*fps) / 0.01)
	if every < 1 {
		every = 1
	}
	opts := []sim.Option{
		sim.WithPolicy(*policyName),
		sim.WithSeed(*seed),
		sim.WithIntersection(interCfg),
	}
	var traceFile *os.File
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imviz:", err)
			os.Exit(1)
		}
		defer f.Close()
		fmt.Fprintln(f, "t,vehicle,movement,x,y,heading,speed,state")
		traceFile = f
	}
	render := !*quiet
	if render || traceFile != nil {
		observer := func(now float64, vs []sim.VehicleView) {
			if traceFile != nil {
				for _, v := range vs {
					fmt.Fprintf(traceFile, "%.3f,%d,%s,%.4f,%.4f,%.4f,%.3f,%s\n",
						now, v.ID, v.Movement, v.Pose.Pos.X, v.Pose.Pos.Y, v.Pose.Heading, v.Speed, v.State)
				}
			}
			if render {
				fmt.Print("\033[H\033[2J")
				fmt.Printf("t=%6.2fs  policy=%s  vehicles=%d\n", now, *policyName, len(vs))
				fmt.Print(renderFrame(interCfg, vs))
				time.Sleep(30 * time.Millisecond)
			}
		}
		opts = append(opts, sim.WithObserver(observer, every))
	}
	cfg, err := sim.NewConfig(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imviz:", err)
		os.Exit(1)
	}
	res, err := sim.Run(cfg, arrivals)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imviz:", err)
		os.Exit(1)
	}
	fmt.Printf("\n%s: %d/%d crossed, mean wait %.2fs, collisions %d, messages %d\n",
		res.Policy, res.Summary.Completed, len(arrivals),
		res.Summary.MeanWait, res.Summary.Collisions, res.Summary.Messages)
}

// renderFrame draws the world into a character grid. The viewport spans the
// intersection plus its approaches.
func renderFrame(cfg intersection.Config, vs []sim.VehicleView) string {
	span := cfg.BoxSize/2 + cfg.ApproachLen + 0.5
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	plot := func(p geom.Vec2, ch byte) {
		c := int((p.X + span) / (2 * span) * float64(cols))
		r := int((span - p.Y) / (2 * span) * float64(rows))
		if c >= 0 && c < cols && r >= 0 && r < rows {
			grid[r][c] = ch
		}
	}
	// Roads and box outline.
	half := cfg.BoxSize / 2
	for d := -span; d <= span; d += 2 * span / float64(cols) {
		plot(geom.V(d, half+0.02), '-')
		plot(geom.V(d, -half-0.02), '-')
		plot(geom.V(half+0.02, d), '|')
		plot(geom.V(-half-0.02, d), '|')
	}
	for _, v := range vs {
		ch := byte('o')
		switch v.State {
		case "follow":
			ch = '>'
		case "hold", "request":
			ch = 'x'
		case "done":
			ch = '*'
		}
		plot(v.Pose.Pos, ch)
	}
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("legend: > following plan   x stopped/asking   * done   o syncing\n")
	return b.String()
}
