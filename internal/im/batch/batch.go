// Package batch implements the slot-based batching baseline discussed in
// the paper's Related Works (Tachet et al., "Revisiting street
// intersections using slot-based systems", PLOS ONE 2016): the IM answers
// requests only at the end of a fixed re-organization window.
//
// The paper notes the approach doubles fair-scheduling throughput in
// simulation but inflates computation and network load (every vehicle
// waits out a window before receiving its command), increasing the
// effective WC-RTD. Here it is Crossroads with the window inside the
// anchoring: the shared VT core schedules each request in arrival order
// with the Crossroads planner, whose command executes at
// TE = TT + window + WC-RTD, so the window's wait stays inside the
// deterministic anchoring, and the reply is held until the window closes.
package batch

import (
	"fmt"
	"math"
	"math/rand"

	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
)

// PolicyName is the scheduler name reported in results.
const PolicyName = "batch"

// Config parameterizes the batch scheduler.
type Config struct {
	// Core supplies the Crossroads anchoring, buffers, and cost model.
	Core core.Config
	// Window is the re-organization period (s): replies to the requests
	// that arrive within one window leave together when it closes.
	Window float64
}

// DefaultConfig returns a testbed-scaled configuration with a 0.25 s
// re-organization window.
//
// Deployment constraint: the approach must be long enough that a vehicle
// is still stop-capable when its command arrives — roughly
// ApproachLen > v*(Window+WCRTD) + v^2/(2*decel) + stop-line offset. The
// full-scale geometry satisfies this comfortably; the paper's 3 m scale
// approach only does at light load, which is why Tachet et al. evaluate
// slot-based batching on long approaches.
func DefaultConfig() Config {
	return Config{Core: core.DefaultConfig(), Window: 0.25}
}

// Scheduler is the batching velocity-transaction manager: the shared VT
// core plus the window clock. Because the im.Server protocol is strictly
// request/response, the batch window is realized as a held reply: the
// first request after a window closes opens the next one, each request is
// scheduled on arrival with its TE past the window, and the server holds
// every reply until the window closes (ReleaseAt), which reproduces the
// batching latency the paper attributes to this design.
type Scheduler struct {
	*im.VTCore
	window   float64
	windowAt float64 // when the current window opened
}

// New builds the batch scheduler over the intersection.
func New(x *intersection.Intersection, cfg Config, rng *rand.Rand) (*Scheduler, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("batch: Window %v must be positive", cfg.Window)
	}
	p, err := cfg.Core.WindowedPlanner(cfg.Window)
	if err != nil {
		return nil, err
	}
	c, err := im.NewVTCore(PolicyName, x, p, cfg.Core.VTConfig(), rng)
	if err != nil {
		return nil, err
	}
	return &Scheduler{VTCore: c, window: cfg.Window, windowAt: math.Inf(-1)}, nil
}

// HandleRequest implements im.Scheduler: open a new window if the current
// one has closed, then schedule the request at once. The cost is
// computation only; ReleaseAt holds the reply until the window closes.
func (s *Scheduler) HandleRequest(now float64, req im.Request) (im.Response, float64) {
	if now >= s.windowAt+s.window {
		s.windowAt = now
	}
	return s.VTCore.HandleRequest(now, req)
}

// ReleaseAt implements im.Deferred: replies leave when the window closes.
// Committed truth-reports are corrections, not scheduling requests, and
// leave immediately.
func (s *Scheduler) ReleaseAt(now float64, req im.Request) float64 {
	if req.Committed {
		return now
	}
	return s.windowAt + s.window
}
