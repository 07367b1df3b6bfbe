// Package server hosts the intersection manager behind the versioned wire
// protocol: a long-lived service speaking internal/protocol frames over TCP
// and Unix sockets.
//
// The server does not reimplement the IM. It embeds the exact in-DES
// machinery — des.Simulator, a zero-delay network.Network, im.Server — and
// drives it as a real-time executive (wall clock) or a deterministic replay
// engine (replay clock). Reusing the embedded stack is what makes the
// conformance bridge guarantee possible: a served scheduler is the in-DES
// scheduler, so its grants are byte-identical for the same request stream.
package server

import (
	"fmt"

	"crossroads/internal/des"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/network"
	"crossroads/internal/protocol"
	"crossroads/internal/safety"
)

// world is one embedded IM stack: kernel, zero-delay network, scheduler,
// FIFO server. The wall-mode core owns one long-lived world; replay mode
// builds a fresh world per connection so every replayed stream starts from
// the same state the DES oracle starts from.
type world struct {
	x    *intersection.Intersection
	sim  *des.Simulator
	net  *network.Network
	im   *im.Server
	node int

	// deliver receives every frame the IM sends to a vehicle endpoint, in
	// event-execution order. It runs inside the DES, so it must not block.
	deliver func(now float64, id int64, f protocol.Frame)

	vehicles map[int64]bool
}

// newWorldAt builds the embedded IM stack for one topology node. The shard
// comes from im.NewShard, as in internal/sim, so a served shard draws the
// same jitter sequence as its in-DES twin under the same seed.
func newWorldAt(cfg Config, node int) (*world, error) {
	var xcfg intersection.Config
	var spec safety.Spec
	switch cfg.Geometry {
	case protocol.GeometryScaleModel:
		xcfg = intersection.ScaleModelConfig()
		spec = safety.TestbedSpec()
	case protocol.GeometryFullScale:
		xcfg = intersection.FullScaleConfig()
		spec = safety.FullScaleSpec()
	default:
		return nil, fmt.Errorf("server: unknown geometry %v", cfg.Geometry)
	}
	x, err := intersection.New(xcfg)
	if err != nil {
		return nil, err
	}
	ref := refParams(cfg.Geometry)
	cost := im.CostModel{}
	if cfg.ModelCost {
		cost = im.TestbedCostModel()
	}
	opts := im.PolicyOptions{
		Spec:      spec,
		Cost:      cost,
		RefLength: ref.Length,
		RefWidth:  ref.Width,
	}
	sim := des.New()
	// Zero constant delay and no loss: the network draws no random numbers.
	net := network.New(sim, nil, nil, network.ConstantDelay{D: 0}, 0)
	shard, err := im.NewShard(cfg.Policy, x, opts, cfg.Seed, node, sim, net, nil)
	if err != nil {
		return nil, err
	}
	return &world{x: x, sim: sim, net: net, im: shard, node: node, vehicles: make(map[int64]bool)}, nil
}

// refParams returns the reference vehicle footprint for a geometry: the
// stock vehicle of that scale. Serving cannot scan the workload ahead of
// time the way the simulator does (it takes the largest vehicle in the
// workload), so the reference is fixed per geometry and validateRequest
// refuses any vehicle larger than it.
func refParams(g protocol.Geometry) kinematics.Params {
	if g == protocol.GeometryFullScale {
		return kinematics.FullScaleParams()
	}
	return kinematics.ScaleModelParams()
}

// ensureVehicle registers the vehicle's network endpoint so IM replies to
// it reach w.deliver. Registration is idempotent and immediate (no DES
// event), so lazily registering on first sight cannot perturb event order.
func (w *world) ensureVehicle(id int64) {
	if w.vehicles[id] {
		return
	}
	w.vehicles[id] = true
	w.net.Register(im.VehicleEndpoint(id), func(now float64, msg network.Message) {
		f, ok := frameFromMessage(now, id, msg)
		if !ok {
			return
		}
		if w.deliver != nil {
			w.deliver(now, id, f)
		}
	})
}

// injectNow hands one client frame to the IM at the current simulated time.
// The caller has already positioned the clock (RunUntil in wall mode, an At
// callback in replay mode). Request validation happens here — the one place
// both clock modes and the conformance oracle share.
func (w *world) injectNow(f protocol.Frame) error {
	switch v := f.(type) {
	case protocol.Request:
		req := v.ToIM()
		if err := w.validateRequest(req); err != nil {
			return err
		}
		w.ensureVehicle(req.VehicleID)
		w.net.Send(network.Message{
			Kind:    network.KindRequest,
			From:    im.VehicleEndpoint(req.VehicleID),
			To:      im.NodeEndpoint(w.node),
			Payload: req,
		})
	case protocol.Exit:
		w.ensureVehicle(v.VehicleID)
		w.net.Send(network.Message{
			Kind:    network.KindExit,
			From:    im.VehicleEndpoint(v.VehicleID),
			To:      im.NodeEndpoint(w.node),
			Payload: im.ExitPayload{VehicleID: v.VehicleID, ExitTimestamp: v.ExitTimestamp},
		})
	case protocol.Sync:
		w.ensureVehicle(v.VehicleID)
		w.net.Send(network.Message{
			Kind:    network.KindSyncRequest,
			From:    im.VehicleEndpoint(v.VehicleID),
			To:      im.NodeEndpoint(w.node),
			Payload: im.SyncPayload{T1: v.T1},
		})
	default:
		return fmt.Errorf("frame %s cannot be injected", f.Kind())
	}
	return nil
}

// validateRequest checks a request against the served intersection: the
// movement must exist, the capability packet must be sane, and the vehicle
// must fit inside the geometry's reference footprint (the buffer arithmetic
// is sized for it).
func (w *world) validateRequest(req im.Request) error {
	if w.x.Movement(req.Movement) == nil {
		return fmt.Errorf("unknown movement %s", req.Movement)
	}
	if err := req.Params.Validate(); err != nil {
		return err
	}
	ref := refParams(geometryOf(w.x))
	if req.Params.Length > ref.Length || req.Params.Width > ref.Width {
		return fmt.Errorf("vehicle %.3fx%.3f m exceeds reference footprint %.3fx%.3f m",
			req.Params.Length, req.Params.Width, ref.Length, ref.Width)
	}
	return nil
}

// geometryOf recovers the geometry enum from the built intersection by its
// box size — the two stock configs differ there.
func geometryOf(x *intersection.Intersection) protocol.Geometry {
	if x.Config().BoxSize > intersection.ScaleModelConfig().BoxSize {
		return protocol.GeometryFullScale
	}
	return protocol.GeometryScaleModel
}

// frameFromMessage converts an IM→vehicle network message into its wire
// frame. Unknown kinds are skipped (ok=false), never errors: the embedded
// IM only emits the kinds below.
func frameFromMessage(now float64, id int64, msg network.Message) (protocol.Frame, bool) {
	switch msg.Kind {
	case network.KindResponse, network.KindAccept, network.KindReject:
		resp, ok := msg.Payload.(im.Response)
		if !ok {
			return nil, false
		}
		g, err := protocol.GrantFromResponse(now, id, resp)
		if err != nil {
			return nil, false
		}
		return g, true
	case network.KindAck:
		p, ok := msg.Payload.(im.ExitPayload)
		if !ok {
			return nil, false
		}
		return protocol.Ack{T: now, VehicleID: id, ExitTimestamp: p.ExitTimestamp}, true
	case network.KindSyncResponse:
		p, ok := msg.Payload.(im.SyncPayload)
		if !ok {
			return nil, false
		}
		return protocol.SyncReply{T: now, VehicleID: id, T1: p.T1, T2: p.T2, T3: p.T3}, true
	}
	return nil, false
}
