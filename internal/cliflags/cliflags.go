// Package cliflags collects the flag groups shared by the experiment
// commands. crossroads-sim and scale-model (and any future tool) register
// these groups instead of redeclaring the flags, so names, defaults, and
// help text cannot drift apart between binaries.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"crossroads/internal/im"
	"crossroads/internal/topology"
)

// Common are the flags every experiment command shares: determinism,
// parallelism, and output/trace plumbing.
type Common struct {
	Seed      int64
	Workers   int
	CSV       bool
	TracePath string
	TraceDES  bool
}

// AddCommon registers the shared experiment flags on fs. defaultSeed keeps
// each command's historical default (crossroads-sim: 42, scale-model: 1).
func AddCommon(fs *flag.FlagSet, defaultSeed int64) *Common {
	c := &Common{}
	fs.Int64Var(&c.Seed, "seed", defaultSeed, "random seed")
	fs.IntVar(&c.Workers, "workers", 1, "concurrent experiment cells (1 = serial, 0 = all CPU cores); results are identical either way")
	fs.BoolVar(&c.CSV, "csv", false, "emit CSV instead of aligned tables")
	fs.StringVar(&c.TracePath, "trace", "", "write the structured event trace (JSONL) to this file and print its summary")
	fs.BoolVar(&c.TraceDES, "trace-des", false, "include the kernel event firehose in the trace (large)")
	return c
}

// Check rejects -trace-des without -trace: the kernel events would have
// nowhere to go.
func (c *Common) Check() error {
	if c.TraceDES && c.TracePath == "" {
		return fmt.Errorf("-trace-des needs -trace (the kernel events are written to the trace file)")
	}
	return nil
}

// Profile is the -cpuprofile/-memprofile group shared by crossroads-sim,
// scale-model and crossroads-serve: runtime/pprof profiles of where a
// whole run spends its host time and what it allocates, for
// `go tool pprof`.
type Profile struct {
	CPUPath string
	MemPath string
	cpu     *os.File
	mem     *os.File
}

// AddProfile registers the -cpuprofile/-memprofile group on fs.
func AddProfile(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPUPath, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.MemPath, "memprofile", "", "write an allocation profile of the run to this file when it ends")
	return p
}

// Start creates the requested profile files and starts the CPU profile.
// Call it before the run: a path that cannot be written fails here, with
// nothing profiled and no file left open.
func (p *Profile) Start() error {
	var err error
	if p.CPUPath != "" {
		if p.cpu, err = os.Create(p.CPUPath); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if p.MemPath != "" {
		if p.mem, err = os.Create(p.MemPath); err != nil {
			p.closeAll()
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	if p.cpu != nil {
		if err := pprof.StartCPUProfile(p.cpu); err != nil {
			p.closeAll()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return nil
}

// Stop ends the CPU profile and writes the allocation profile, after a GC
// so its in-use figures are current. It is a no-op for a group with no
// profile requested.
func (p *Profile) Stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("-cpuprofile: %w", err))
		}
		p.cpu = nil
	}
	if p.mem != nil {
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(p.mem, 0); err != nil {
			errs = append(errs, fmt.Errorf("-memprofile: %w", err))
		}
		if err := p.mem.Close(); err != nil {
			errs = append(errs, fmt.Errorf("-memprofile: %w", err))
		}
		p.mem = nil
	}
	return errors.Join(errs...)
}

// closeAll closes whatever files Start opened, after a failure.
func (p *Profile) closeAll() {
	if p.cpu != nil {
		p.cpu.Close()
		p.cpu = nil
	}
	if p.mem != nil {
		p.mem.Close()
		p.mem = nil
	}
}

// Topology are the road-network selection flags.
type Topology struct {
	Corridor int
	Grid     string
	Rate     float64
	SegLen   float64
}

// AddTopology registers the -corridor/-grid/-rate/-seglen group on fs.
func AddTopology(fs *flag.FlagSet) *Topology {
	t := &Topology{}
	fs.IntVar(&t.Corridor, "corridor", 0, "run an N-intersection east-west corridor instead of the single-intersection sweep")
	fs.StringVar(&t.Grid, "grid", "", "run an RxC Manhattan grid (e.g. 2x2) instead of the single-intersection sweep")
	fs.Float64Var(&t.Rate, "rate", 0.3, "input flow per boundary entry lane for -corridor/-grid runs (car/lane/s); -faults reads it too, defaulting to 0.4 when unset")
	fs.Float64Var(&t.SegLen, "seglen", 0, "extra road between adjacent intersections for -corridor/-grid runs (m); 0 abuts them")
	return t
}

// Build resolves the group into a road network with the segment length
// applied; nil means the classic single-intersection run.
func (t *Topology) Build() (*topology.Topology, error) {
	if t.Corridor != 0 && t.Grid != "" {
		return nil, fmt.Errorf("-corridor and -grid are mutually exclusive")
	}
	var topo *topology.Topology
	var err error
	switch {
	case t.Corridor != 0:
		topo, err = topology.Line(t.Corridor)
	case t.Grid != "":
		var r, c int
		if _, serr := fmt.Sscanf(t.Grid, "%dx%d", &r, &c); serr != nil {
			return nil, fmt.Errorf("-grid wants RxC (e.g. 2x2), got %q", t.Grid)
		}
		topo, err = topology.Grid(r, c)
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return topo.WithSegmentLen(t.SegLen), nil
}

// Coord is the IM↔IM coordination flag group shared by crossroads-sim and
// crossroads-serve: one -coord flag selecting the plane and, optionally,
// its digest period.
type Coord struct {
	// Raw is the unparsed -coord value; resolve it with Parse.
	Raw string
}

// AddCoord registers the -coord flag on fs.
func AddCoord(fs *flag.FlagSet) *Coord {
	c := &Coord{}
	fs.StringVar(&c.Raw, "coord", "off",
		`IM↔IM coordination plane: "off" (default, byte-identical to earlier builds) or "on" with an optional digest period, e.g. "on,period=0.5"`)
	return c
}

// Parse resolves the -coord value into (enabled, digest period). period 0
// means the default; it is only settable when the plane is on.
func (c *Coord) Parse() (enabled bool, period float64, err error) {
	mode, rest, hasRest := strings.Cut(c.Raw, ",")
	switch mode {
	case "off", "":
		if hasRest {
			return false, 0, fmt.Errorf(`-coord off takes no options, got %q`, c.Raw)
		}
		return false, 0, nil
	case "on":
	default:
		return false, 0, fmt.Errorf(`-coord wants on|off[,period=..], got %q`, c.Raw)
	}
	if !hasRest {
		return true, 0, nil
	}
	for _, opt := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(opt, "=")
		if !ok || key != "period" {
			return false, 0, fmt.Errorf(`-coord option %q: only period=<seconds> is known`, opt)
		}
		p, perr := strconv.ParseFloat(val, 64)
		if perr != nil || !(p > 0) || math.IsInf(p, 1) {
			return false, 0, fmt.Errorf(`-coord period %q must be a finite positive number of seconds`, val)
		}
		period = p
	}
	return true, period, nil
}

// Policy is the scheduler-selection flag group shared by crossroads-sim
// and scale-model: -policy picks the schedulers under test and the
// repeatable -policy-opt flag passes namespaced tuning knobs through to
// their factories.
type Policy struct {
	// Raw is the unparsed -policy value: "" keeps the command's default
	// set, "list" prints the registered policies and exits, anything else
	// is a comma-separated policy list.
	Raw string
	// Opts accumulates the repeated -policy-opt pairs in order.
	Opts repeatable
}

// repeatable is a flag.Value that collects every occurrence of its flag.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

// AddPolicy registers the -policy/-policy-opt group on fs.
func AddPolicy(fs *flag.FlagSet) *Policy {
	p := &Policy{}
	fs.StringVar(&p.Raw, "policy", "", `comma-separated IM policies to run (e.g. "crossroads,dot,signalized"); empty keeps the command's default set; "list" prints the registered policies and exits`)
	fs.Var(&p.Opts, "policy-opt", "repeatable <policy>.<knob>=value tuning pair (e.g. -policy-opt dot.grid=16 -policy-opt signalized.green=6)")
	return p
}

// List reports whether -policy list was requested; the caller prints
// ListText and exits.
func (p *Policy) List() bool { return p.Raw == "list" }

// ListText renders the registered policy names one per line.
func (p *Policy) ListText() string {
	return strings.Join(im.Policies(), "\n")
}

// Policies resolves -policy into the selected registered policy names, or
// def when the flag was left empty.
func (p *Policy) Policies(def []string) ([]string, error) {
	if p.Raw == "" {
		return def, nil
	}
	var out []string
	for _, name := range strings.Split(p.Raw, ",") {
		name = strings.TrimSpace(name)
		if _, err := im.LookupPolicy(name); err != nil {
			return nil, fmt.Errorf("-policy: %w", err)
		}
		out = append(out, name)
	}
	return out, nil
}

// Params folds the -policy-opt pairs into a validated Params map (nil when
// none were passed).
func (p *Policy) Params() (map[string]string, error) {
	m, err := im.ParseParams(p.Opts)
	if err != nil {
		return nil, fmt.Errorf("-policy-opt: %w", err)
	}
	if err := im.ValidateParams(m); err != nil {
		return nil, fmt.Errorf("-policy-opt: %w", err)
	}
	return m, nil
}

// AddFaults registers the -faults robustness-matrix selector on fs.
func AddFaults(fs *flag.FlagSet) *string {
	return fs.String("faults", "", `run the fault-injection robustness matrix instead of the sweep: "matrix" for every named scenario, or one scenario name / window DSL (see internal/fault)`)
}

// WasSet reports whether the named flag appeared on the command line.
// Call it only after fs.Parse.
func WasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
