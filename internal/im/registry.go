package im

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"crossroads/internal/des"
	"crossroads/internal/intersection"
	"crossroads/internal/metrics"
	"crossroads/internal/network"
	"crossroads/internal/safety"
)

// PolicyOptions carries the cross-policy knobs a scheduler factory may
// consume. Every IM shard of a multi-node topology is constructed
// independently from the same options with its own RNG stream.
type PolicyOptions struct {
	// Spec carries the uncertainty bounds (buffers, WC-RTD).
	Spec safety.Spec
	// Cost models IM computation delay.
	Cost CostModel
	// RefLength and RefWidth are the reference vehicle body dimensions:
	// the largest vehicle in the workload when simulating, the stock
	// vehicle of the geometry when serving.
	RefLength, RefWidth float64
	// OmitRTDBuffer runs VT-IM without its RTD buffer (the unsafe
	// ablation). The other factories ignore it; sim.Config.Validate
	// rejects it for every policy but VT-IM.
	OmitRTDBuffer bool
	// Params carries generic per-policy knobs under namespaced
	// "<policy>.<knob>" keys. Factories read their namespace through
	// ParamsFor and reject unknown knobs; ValidateParams rejects keys
	// addressed to unregistered policies.
	Params map[string]string
}

// PolicyFactory constructs one scheduler instance for one intersection.
type PolicyFactory func(x *intersection.Intersection, opts PolicyOptions, rng *rand.Rand) (Scheduler, error)

// Protocol is the wire protocol a policy's vehicles speak. The vehicle
// agent implements exactly these three; the zero value is undeclared, and
// RegisterPolicy rejects it.
type Protocol int

const (
	// ProtocolVelocity is VT-IM's: the reply is a velocity the vehicle
	// adopts on receipt and holds through the box.
	ProtocolVelocity Protocol = iota + 1
	// ProtocolQuery is AIM's: the vehicle proposes a constant-speed
	// crossing and the reply is yes or no.
	ProtocolQuery
	// ProtocolTimed is Crossroads': requests carry the synchronized
	// transmit time TT, the reply is a command executed at
	// TE = TT + WC-RTD, and the IM may push unsolicited revisions.
	ProtocolTimed
)

// PolicyEntry is a registered policy: every per-policy fact the harnesses
// need. Policy packages declare it; callers only name the policy.
type PolicyEntry struct {
	// Factory constructs the policy's scheduler for one intersection.
	Factory PolicyFactory
	// Protocol is the wire protocol the policy's vehicles speak.
	Protocol Protocol
	// ReplyHold is how long (s) the scheduler may hold a reply before
	// sending it, which vehicles add to their response timeout and
	// command latency: batch's re-organization window, 0 otherwise.
	ReplyHold float64
}

var (
	policyMu  sync.RWMutex
	policyReg = map[string]PolicyEntry{}
)

// RegisterPolicy adds a policy under a name. Policy packages
// self-register from init(); a duplicate name, a nil Factory or an
// undeclared Protocol panics (each is a wiring bug, not a runtime
// condition).
func RegisterPolicy(name string, e PolicyEntry) {
	if e.Factory == nil {
		panic("im: policy registered without a factory: " + name)
	}
	if e.Protocol < ProtocolVelocity || e.Protocol > ProtocolTimed {
		panic("im: policy registered without a protocol: " + name)
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policyReg[name]; dup {
		panic("im: duplicate policy registration: " + name)
	}
	policyReg[name] = e
}

// LookupPolicy returns the named policy's registry entry; an unknown name
// is an error listing the registered policies.
func LookupPolicy(name string) (PolicyEntry, error) {
	policyMu.RLock()
	e, ok := policyReg[name]
	policyMu.RUnlock()
	if !ok {
		return PolicyEntry{}, fmt.Errorf("im: unknown policy %q (registered: %v)", name, Policies())
	}
	return e, nil
}

// NewScheduler instantiates the named policy for one intersection. The
// caller owns rng: schedulers for different nodes must get independent
// streams so one shard's jitter draws cannot perturb another's.
func NewScheduler(name string, x *intersection.Intersection, opts PolicyOptions, rng *rand.Rand) (Scheduler, error) {
	e, err := LookupPolicy(name)
	if err != nil {
		return nil, err
	}
	return e.Factory(x, opts, rng)
}

// NewShard builds topology node k's IM shard: the named policy's
// scheduler on its own RNG stream, seed+2+1000k, served at node k's
// endpoint. Node 0 keeps the single-intersection stream seed+2. The
// simulator and the serve-mode worlds both build shards here, so a served
// shard draws the same jitter sequence as its in-DES twin.
func NewShard(policy string, x *intersection.Intersection, opts PolicyOptions, seed int64, k int,
	sim *des.Simulator, net *network.Network, col *metrics.Collector) (*Server, error) {
	sched, err := NewScheduler(policy, x, opts, rand.New(rand.NewSource(seed+2+1000*int64(k))))
	if err != nil {
		return nil, err
	}
	return NewServerAt(sim, net, sched, col, NodeEndpoint(k), k), nil
}

// Policies returns the registered policy names, sorted — the canonical
// discovery call behind `-policy list` and the pkg/crossroads facade.
func Policies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	names := make([]string, 0, len(policyReg))
	for n := range policyReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NodeEndpoint returns the network address of a topology node's IM shard.
// Node 0 keeps the historic bare "im" name so single-intersection traces
// and tests are unchanged by the topology refactor.
func NodeEndpoint(node int) string {
	if node == 0 {
		return EndpointName
	}
	return EndpointName + strconv.Itoa(node)
}
