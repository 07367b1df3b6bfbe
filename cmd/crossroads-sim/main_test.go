package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// selectMode parses args as crossroads-sim's command line and returns the
// selected mode or the error that would stop the run.
func selectMode(args string) (string, error) {
	fs := flag.NewFlagSet("crossroads-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := addFlags(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return "", err
	}
	return f.mode(fs)
}

// TestRejectsIgnoredFlags pins that every mode fails, naming the flag,
// when given a flag it would otherwise silently ignore.
func TestRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-n 12 -scale -rate 0.9", "-rate"},
		{"-n 12 -scale -seglen 4", "-seglen"},
		{"-n 12 -scale -rate 0.9 -seglen 4", "-rate"},
		{"-coord on", "-coord"},
		{"-corridor 3 -overhead", "-overhead"},
		{"-corridor 3 -summary", "-summary"},
		{"-grid 2x2 -overhead", "-overhead"},
		{"-grid 2x2 -summary", "-summary"},
		{"-faults mix -noise", "-noise"},
		{"-faults mix -trace t.jsonl -trace-des", "-trace-des"},
		{"-faults mix -seglen 4", "-seglen"},
		{"-faults mix -overhead", "-overhead"},
		{"-faults mix -summary", "-summary"},
		{"-faults mix -scale", "-scale"},
		{"-faults mix -coord on", "-coord"},
		{"-faults matrix -corridor 3", "-corridor"},
		{"-faults matrix -grid 2x2", "-grid"},
		{"-trace-des", "-trace-des"},
		{"-n 8 -scale -trace-des", "-trace-des"},
		{"-corridor 3 -trace-des", "-trace-des"},
	} {
		m, err := selectMode(tc.args)
		if err == nil {
			t.Errorf("%q: accepted as %s", tc.args, m)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%q: error %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

// TestAcceptsDocumentedCommands pins that every command line the Makefile
// demos, README, and EXPERIMENTS.md use still selects its mode.
func TestAcceptsDocumentedCommands(t *testing.T) {
	for _, tc := range []struct{ args, mode string }{
		{"", sweepMode},
		{"-overhead -summary", sweepMode},
		{"-overhead", sweepMode},
		{"-summary", sweepMode},
		{"-workers 0", sweepMode},
		{"-n 24 -summary", sweepMode},
		{"-n 40 -trace sweep.jsonl", sweepMode},
		{"-policy crossroads,dot,signalized,auction", sweepMode},
		{"-n 8 -seed 7 -workers 1 -scale -trace trace-demo.jsonl", sweepMode},
		{"-n 8 -seed 7 -workers 1 -scale -trace t.jsonl -trace-des", sweepMode},
		{"-n 12 -scale -workers 0 -overhead -policy vt-im,aim,batch,crossroads -csv", sweepMode},
		{"-corridor 3 -scale -noise", topoMode},
		{"-grid 2x2 -scale -noise", topoMode},
		{"-corridor 3 -seglen 120 -rate 0.6 -n 200 -seed 42 -coord on", topoMode},
		{"-corridor 3 -seglen 120 -rate 0.6 -n 200 -seed 42", topoMode},
		{"-grid 2x2 -scale -noise -coord on,period=0.25", topoMode},
		{"-corridor 3 -n 16 -seed 7 -scale -noise -trace corridor-demo.jsonl", topoMode},
		{"-grid 2x2 -n 12 -seed 7 -scale -noise", topoMode},
		{"-grid 3x3 -seglen 80 -n 60 -seed 42 -workers 0 -coord on", topoMode},
		{"-grid 2x2 -seglen 12 -n 60 -seed 42 -workers 0 -policy crossroads,dot,signalized,auction -policy-opt dot.grid=12 -policy-opt signalized.green=8", topoMode},
		{"-faults matrix -seed 1 -workers 0", faultMode},
		{"-faults mix -seed 1 -workers 0 -trace chaos-demo.jsonl", faultMode},
		{"-faults stall -n 12 -rate 0.6 -csv", faultMode},
	} {
		m, err := selectMode(tc.args)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if m != tc.mode {
			t.Errorf("%q: mode %s, want %s", tc.args, m, tc.mode)
		}
	}
}

// TestModesNameRegisteredFlags guards the mode table against typos: every
// flag it lists must be one crossroads-sim registers, and every registered
// flag must be read by some mode.
func TestModesNameRegisteredFlags(t *testing.T) {
	fs := flag.NewFlagSet("crossroads-sim", flag.ContinueOnError)
	addFlags(fs)
	read := map[string]bool{}
	for m, names := range modes {
		for _, name := range names {
			if fs.Lookup(name) == nil {
				t.Errorf("%s lists unregistered flag -%s", m, name)
			}
			read[name] = true
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !read[f.Name] {
			t.Errorf("no mode reads -%s", f.Name)
		}
	})
}
