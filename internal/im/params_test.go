package im

import (
	"strings"
	"testing"
)

func TestParamReaderRoundTrip(t *testing.T) {
	opts := PolicyOptions{Params: map[string]string{
		"ptest.grid":  "16",
		"ptest.green": "6.5",
		"other.knob":  "ignored",
	}}
	p := opts.ParamsFor("ptest")
	if got := p.Int("grid", 8); got != 16 {
		t.Errorf("Int(grid) = %d, want 16", got)
	}
	if got := p.Float("green", 8); got != 6.5 {
		t.Errorf("Float(green) = %v, want 6.5", got)
	}
	if got := p.Float("absent", 2.5); got != 2.5 {
		t.Errorf("Float(absent) = %v, want the default 2.5", got)
	}
	if err := p.Err(); err != nil {
		t.Errorf("round trip errored: %v", err)
	}
}

func TestParamReaderMalformedValue(t *testing.T) {
	opts := PolicyOptions{Params: map[string]string{"ptest.grid": "dozen"}}
	p := opts.ParamsFor("ptest")
	if got := p.Int("grid", 8); got != 8 {
		t.Errorf("malformed Int = %d, want the default 8", got)
	}
	err := p.Err()
	if err == nil {
		t.Fatal("malformed value did not error")
	}
	for _, want := range []string{`"ptest"`, "ptest.grid", `"dozen"`, "integer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestParamReaderUnknownKnobNamesPolicyAndKnown(t *testing.T) {
	opts := PolicyOptions{Params: map[string]string{"ptest.bogus": "1"}}
	p := opts.ParamsFor("ptest")
	p.Int("grid", 8)
	err := p.Err()
	if err == nil {
		t.Fatal("unknown knob did not error")
	}
	for _, want := range []string{`"ptest"`, "ptest.bogus", "ptest.grid"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	// A policy that reads no knobs says so instead of listing none.
	none := opts.ParamsFor("ptest")
	err = none.Err()
	if err == nil || !strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("knobless policy error = %v, want a takes-no-parameters message", err)
	}
}

func TestParseParams(t *testing.T) {
	m, err := ParseParams([]string{"a.b=1", "c.d=x=y"})
	if err != nil {
		t.Fatal(err)
	}
	if m["a.b"] != "1" || m["c.d"] != "x=y" {
		t.Errorf("ParseParams = %v", m)
	}
	if _, err := ParseParams([]string{"novalue"}); err == nil {
		t.Error("pair without '=' did not error")
	}
	if m, err := ParseParams(nil); err != nil || m != nil {
		t.Errorf("empty ParseParams = %v, %v", m, err)
	}
}

func TestValidateParams(t *testing.T) {
	RegisterPolicy("zz-params-valid", PolicyEntry{Factory: testFactory, Protocol: ProtocolTimed})
	if err := ValidateParams(map[string]string{"zz-params-valid.k": "1"}); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := ValidateParams(map[string]string{"noknob": "1"}); err == nil {
		t.Error("key without namespace accepted")
	}
	err := ValidateParams(map[string]string{"zz-unregistered.k": "1"})
	if err == nil || !strings.Contains(err.Error(), `"zz-unregistered"`) {
		t.Errorf("unregistered policy prefix error = %v", err)
	}
	if err := ValidateParams(nil); err != nil {
		t.Errorf("nil params rejected: %v", err)
	}
}
