package cliflags

import (
	"flag"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	_ "crossroads/internal/core" // register the crossroads policy
	"crossroads/internal/im"
	"crossroads/internal/intersection"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestCommonDefaultsAndParse(t *testing.T) {
	fs := newFS()
	c := AddCommon(fs, 42)
	if err := fs.Parse([]string{"-workers", "3", "-csv", "-trace", "out.jsonl"}); err != nil {
		t.Fatal(err)
	}
	if c.Seed != 42 || c.Workers != 3 || !c.CSV || c.TracePath != "out.jsonl" || c.TraceDES {
		t.Fatalf("parsed %+v", c)
	}
	if !WasSet(fs, "workers") || WasSet(fs, "seed") {
		t.Fatal("WasSet misreports explicit vs defaulted flags")
	}
}

// TestCommonCheck pins the rule both experiment commands share: -trace-des
// without -trace fails, naming the flag, instead of being ignored.
func TestCommonCheck(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr bool
	}{
		{nil, false},
		{[]string{"-trace", "t.jsonl"}, false},
		{[]string{"-trace", "t.jsonl", "-trace-des"}, false},
		{[]string{"-trace-des"}, true},
		{[]string{"-seed", "3", "-trace-des"}, true},
	} {
		fs := newFS()
		c := AddCommon(fs, 1)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := c.Check()
		if tc.wantErr && (err == nil || !strings.Contains(err.Error(), "-trace-des")) {
			t.Errorf("%q: error %v, want one naming -trace-des", tc.args, err)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%q: %v", tc.args, err)
		}
	}
}

func TestTopologyBuild(t *testing.T) {
	fs := newFS()
	tp := AddTopology(fs)
	if err := fs.Parse([]string{"-grid", "2x3", "-seglen", "0.8"}); err != nil {
		t.Fatal(err)
	}
	topo, err := tp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 6 {
		t.Fatalf("2x3 grid has %d nodes", topo.NumNodes())
	}
	if topo.SegmentLen() != 0.8 {
		t.Fatalf("segment len %v", topo.SegmentLen())
	}

	// No topology flags means the classic single-intersection run.
	tp2 := AddTopology(newFS())
	if topo, err := tp2.Build(); err != nil || topo != nil {
		t.Fatalf("empty build: topo=%v err=%v", topo, err)
	}

	// Contradictions and malformed grids are rejected.
	tp3 := &Topology{Corridor: 2, Grid: "2x2"}
	if _, err := tp3.Build(); err == nil {
		t.Fatal("corridor+grid accepted")
	}
	tp4 := &Topology{Grid: "bogus"}
	if _, err := tp4.Build(); err == nil {
		t.Fatal("malformed grid accepted")
	}
}

func TestCoordParse(t *testing.T) {
	cases := []struct {
		raw     string
		enabled bool
		period  float64
		wantErr bool
	}{
		{"off", false, 0, false},
		{"", false, 0, false},
		{"on", true, 0, false},
		{"on,period=0.25", true, 0.25, false},
		{"off,period=0.25", false, 0, true}, // options only make sense when on
		{"on,period=-1", false, 0, true},
		{"on,period=x", false, 0, true},
		{"on,jitter=3", false, 0, true}, // unknown option
		{"maybe", false, 0, true},
	}
	for _, c := range cases {
		enabled, period, err := (&Coord{Raw: c.raw}).Parse()
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: expected an error", c.raw)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.raw, err)
			continue
		}
		if enabled != c.enabled || period != c.period {
			t.Errorf("%q: got (%v, %v), want (%v, %v)", c.raw, enabled, period, c.enabled, c.period)
		}
	}
}

func TestCoordFlagRegistrationAndWasSet(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := AddCoord(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if WasSet(fs, "coord") {
		t.Error("coord reported set on an empty command line")
	}
	if on, _, err := c.Parse(); err != nil || on {
		t.Errorf("default = (%v, err %v), want off", on, err)
	}
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	c2 := AddCoord(fs2)
	if err := fs2.Parse([]string{"-coord", "on,period=0.4"}); err != nil {
		t.Fatal(err)
	}
	if !WasSet(fs2, "coord") {
		t.Error("coord not reported set after -coord")
	}
	on, period, err := c2.Parse()
	if err != nil || !on || period != 0.4 {
		t.Errorf("got (%v, %v, %v), want (true, 0.4, nil)", on, period, err)
	}
}

// TestPolicyParse covers -policy: any registered name is accepted, one a
// test registers included, names are trimmed, an unknown name fails with
// an error listing the registry, and an empty flag keeps the default.
func TestPolicyParse(t *testing.T) {
	im.RegisterPolicy("zz-cliflags-test", im.PolicyEntry{
		Factory: func(*intersection.Intersection, im.PolicyOptions, *rand.Rand) (im.Scheduler, error) {
			return nil, nil
		},
		Protocol: im.ProtocolTimed,
	})
	parse := func(args ...string) *Policy {
		fs := newFS()
		p := AddPolicy(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return p
	}

	got, err := parse("-policy", " crossroads , zz-cliflags-test").Policies(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"crossroads", "zz-cliflags-test"}; !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}

	_, err = parse("-policy", "crossroads,nope").Policies(nil)
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error %q does not name the unknown policy", err)
	}
	for _, name := range im.Policies() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered policy %q", err, name)
		}
	}

	def := []string{"vt-im", "crossroads"}
	if got, err := parse().Policies(def); err != nil || !slices.Equal(got, def) {
		t.Errorf("empty -policy gave (%q, %v), want the default %q", got, err, def)
	}
}
