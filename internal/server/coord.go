package server

import (
	"crossroads/internal/im"
	"crossroads/internal/network"
)

// This file wires the IM↔IM coordination plane into the sharded server:
// each shard world gets a router that carries messages addressed to
// another shard's IM endpoint — the link-state digests — onto that shard's
// executive, and each embedded im.Server is armed with its topology
// neighbors. The links are in-process (shard executives in one process);
// a cross-process federation would replace peerRouter with a socket, and
// nothing above the network.Router seam would change.

// peerRouter forwards a shard world's messages addressed to a remote IM
// endpoint to the owning shard's executive. The hand-off is non-blocking:
// two executives sending into each other's full inboxes must not deadlock,
// so when the destination inbox is full the message is dropped instead.
// Digests are periodic, loss-tolerant link state — the next one repairs
// the view — which is exactly why they may ride a lossy link.
type peerRouter struct {
	s    *Server
	node int
}

func (r peerRouter) Route(msg network.Message, detail string) bool {
	dst, ok := r.s.peerShard[msg.To]
	if !ok || dst == r.node {
		return false
	}
	select {
	case r.s.shards[dst].inbox <- coreMsg{peer: &msg}:
	default:
	}
	return true
}

// wireCoordination arms every shard's coordination plane: peer routers on
// the shard networks plus EnableCoordination with the node's topology
// neighbors. Called from New after all shard worlds exist, wall mode only.
func (s *Server) wireCoordination() {
	s.peerShard = make(map[string]int, len(s.shards))
	for k := range s.shards {
		s.peerShard[im.NodeEndpoint(k)] = k
	}
	// Serving cannot scan the workload the way the DES harness does, so
	// segment transit is estimated at the geometry's reference vehicle's
	// cruise speed; the reference footprint already bounds every admitted
	// vehicle.
	ccfg := im.NewCoordConfig(s.cfg.CoordPeriod, s.shards[0].world.x, s.topo, refParams(s.cfg.Geometry).MaxSpeed)
	for k, sh := range s.shards {
		sh.world.net.SetRouter(peerRouter{s: s, node: k})
		peers, downstream := im.CoordPeers(s.topo, k)
		sh.world.im.EnableCoordination(ccfg, peers, downstream)
	}
}
