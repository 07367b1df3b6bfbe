// Package crossroads is the stable public facade over the repo's internal
// packages. External tooling should import this package (and only this
// package) rather than reaching into internal/...; the aliases here are the
// supported surface and will hold steady across internal refactors.
//
// The facade covers three things:
//
//   - the IM policy registry, so out-of-tree schedulers can register
//     themselves and be simulated, swept, served, and load-tested like the
//     built-ins;
//   - the experiment entry points (single-intersection sweeps, topology
//     sweeps, fault matrices, scale-scenario replication);
//   - the serve-mode wire protocol types, so clients can speak to
//     crossroads-serve without depending on internal/protocol directly.
//
// Importing this package registers all seven built-in policies
// ("crossroads", "vt-im", "aim", "batch", "dot", "signalized",
// "auction").
package crossroads

import (
	"crossroads/internal/im"
	"crossroads/internal/protocol"
	"crossroads/internal/sim"
	"crossroads/internal/sweep"

	_ "crossroads/internal/im/builtin" // register the built-in policies
)

// Policy registry: implement im.Scheduler, register an entry naming its
// factory and the wire protocol its vehicles speak, and every harness in
// the repo (sim, sweeps, serve mode) can run it.
type (
	// Scheduler is the IM policy interface.
	Scheduler = im.Scheduler
	// PolicyOptions parameterizes scheduler construction.
	PolicyOptions = im.PolicyOptions
	// PolicyFactory builds a scheduler for one intersection.
	PolicyFactory = im.PolicyFactory
	// PolicyEntry is a registered policy: its factory, its wire protocol,
	// and the reply hold its vehicles budget for.
	PolicyEntry = im.PolicyEntry
	// Protocol is the wire protocol a policy's vehicles speak.
	Protocol = im.Protocol
)

// The three wire protocols a policy entry may declare.
const (
	// ProtocolVelocity is VT-IM's held velocity.
	ProtocolVelocity = im.ProtocolVelocity
	// ProtocolQuery is AIM's yes/no query.
	ProtocolQuery = im.ProtocolQuery
	// ProtocolTimed is Crossroads' command executed at TE = TT + WC-RTD.
	ProtocolTimed = im.ProtocolTimed
)

var (
	// RegisterPolicy adds a policy entry under a unique name.
	RegisterPolicy = im.RegisterPolicy
	// NewScheduler instantiates a registered policy by name.
	NewScheduler = im.NewScheduler
	// Policies lists registered policy names, sorted.
	Policies = im.Policies
	// ParseParams folds repeated "key=value" pairs into a policy-params
	// map for WithPolicyParams.
	ParseParams = im.ParseParams
	// ValidateParams checks a policy-params map's key shape up front.
	ValidateParams = im.ValidateParams
)

// Simulation construction and execution.
type (
	// SimConfig describes one simulation run; build it with NewSimConfig.
	SimConfig = sim.Config
	// SimOption mutates a SimConfig under construction.
	SimOption = sim.Option
	// SimResult is the outcome of one run.
	SimResult = sim.Result
)

var (
	// NewSimConfig builds a validated simulation config from options.
	NewSimConfig = sim.NewConfig
	// RunSim executes one simulation of a workload. The arrivals must be
	// in time order (non-decreasing Time) and carry distinct vehicle IDs;
	// RunSim returns an error naming the first arrival that breaks either
	// rule.
	RunSim = sim.Run

	// Simulation options, mirrored from internal/sim.
	WithPolicy         = sim.WithPolicy
	WithSeed           = sim.WithSeed
	WithIntersection   = sim.WithIntersection
	WithTopology       = sim.WithTopology
	WithSpec           = sim.WithSpec
	WithCost           = sim.WithCost
	WithDelay          = sim.WithDelay
	WithLossProb       = sim.WithLossProb
	WithFaults         = sim.WithFaults
	WithNoise          = sim.WithNoise
	WithPhysicsDt      = sim.WithPhysicsDt
	WithMaxSimTime     = sim.WithMaxSimTime
	WithClockError     = sim.WithClockError
	WithOmitRTDBuffer  = sim.WithOmitRTDBuffer
	WithPolicyParams   = sim.WithPolicyParams
	WithCollisionEvery = sim.WithCollisionEvery
	WithObserver       = sim.WithObserver
	WithTrace          = sim.WithTrace
	WithDESTrace       = sim.WithDESTrace
)

// Experiment entry points: the rate sweeps, topology sweeps, fault
// matrices, and scale-scenario replication behind the cmd/ tools.
type (
	// SweepConfig parameterizes a single-intersection rate sweep.
	SweepConfig = sweep.Config
	// SweepResult holds one rate sweep's cells.
	SweepResult = sweep.Result
	// TopoConfig parameterizes a multi-intersection topology sweep.
	TopoConfig = sweep.TopoConfig
	// TopoResult holds one topology sweep's cells.
	TopoResult = sweep.TopoResult
	// FaultMatrixConfig parameterizes a fault-scenario × policy matrix.
	FaultMatrixConfig = sweep.FaultMatrixConfig
	// FaultMatrixResult holds one fault matrix's cells.
	FaultMatrixResult = sweep.FaultMatrixResult
	// ScaleConfig parameterizes the paper's scale-model scenario table.
	ScaleConfig = sweep.ScaleConfig
	// ScaleResult holds the replicated scenario table.
	ScaleResult = sweep.ScaleResult
)

var (
	// RunSweep runs a single-intersection rate sweep.
	RunSweep = sweep.Run
	// RunTopologySweep runs a policy sweep over a road network.
	RunTopologySweep = sweep.RunTopology
	// RunFaultMatrix runs a fault-scenario × policy resilience matrix.
	RunFaultMatrix = sweep.RunFaultMatrix
	// RunScaleScenarios replicates the paper's scale-model scenarios.
	RunScaleScenarios = sweep.RunScale
)

// Wire protocol: the serve-mode frame types and codec, enough to write a
// client for crossroads-serve.
type (
	// Frame is any protocol frame.
	Frame = protocol.Frame
	// Hello opens a connection (client → server).
	Hello = protocol.Hello
	// Welcome accepts a connection (server → client).
	Welcome = protocol.Welcome
	// Request asks for a crossing reservation.
	Request = protocol.Request
	// Grant answers a Request (accept, reject, or revision).
	Grant = protocol.Grant
	// Exit reports that a vehicle cleared the intersection.
	Exit = protocol.Exit
	// Ack confirms an Exit.
	Ack = protocol.Ack
	// Sync requests a clock-sync exchange.
	Sync = protocol.Sync
	// SyncReply answers a Sync.
	SyncReply = protocol.SyncReply
	// ProtocolError reports a fatal protocol violation.
	ProtocolError = protocol.Error
	// Bye closes a connection cleanly.
	Bye = protocol.Bye
	// BatchItem is one injectable frame or reply tagged with its
	// topology node (v2).
	BatchItem = protocol.BatchItem
	// Batch carries many node-tagged injectable frames in one wire frame
	// (v2, client → server).
	Batch = protocol.Batch
	// BatchReply carries many node-tagged IM replies in one wire frame
	// (v2, server → client).
	BatchReply = protocol.BatchReply
	// Topo advertises the served road network right after a v2 Welcome.
	Topo = protocol.Topo
	// FrameReader decodes frames from a stream.
	FrameReader = protocol.Reader
	// FrameWriter encodes frames onto a stream.
	FrameWriter = protocol.Writer
)

var (
	// NewFrameReader wraps a stream for frame decoding.
	NewFrameReader = protocol.NewReader
	// NewFrameWriter wraps a stream for frame encoding.
	NewFrameWriter = protocol.NewWriter
	// EncodeFrame encodes one frame to bytes.
	EncodeFrame = protocol.Encode
	// DecodeFrame decodes one frame from a buffer.
	DecodeFrame = protocol.Decode
)

// ProtocolVersion is the newest wire-protocol version this build speaks.
const ProtocolVersion = protocol.MaxVersion

// The individual protocol versions a server may negotiate down to.
const (
	// ProtocolVersion1 is the original bare-frame protocol: one
	// intersection per connection, replies interleaved frame by frame.
	ProtocolVersion1 = protocol.Version1
	// ProtocolVersion2 adds node-tagged batch frames and connection
	// multiplexing across a sharded (corridor/grid) server.
	ProtocolVersion2 = protocol.Version2
)
