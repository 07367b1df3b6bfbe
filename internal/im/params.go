package im

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Policy parameters are generic string knobs carried by PolicyOptions.Params
// under namespaced keys "<policy>.<knob>" (for example "dot.grid" or
// "signalized.green"), so a new policy family can grow tuning surface
// without changing the PolicyFactory signature. Factories read their knobs
// through ParamsFor, which records every knob it is asked for and turns any
// leftover key addressed to that policy into an unknown-parameter error
// naming the policy and its known knobs.

// ParamReader reads one policy's namespaced parameters with typed getters.
// Getters never fail loudly mid-parse; the first malformed value and any
// unconsumed key surface together from Err, which factories must check
// after reading every knob they understand.
type ParamReader struct {
	policy string
	params map[string]string
	known  []string
	err    error
}

// ParamsFor scopes the options' Params to one policy's namespace.
func (o PolicyOptions) ParamsFor(policy string) *ParamReader {
	return &ParamReader{policy: policy, params: o.Params}
}

func (r *ParamReader) lookup(knob string) (string, bool) {
	r.known = append(r.known, knob)
	v, ok := r.params[r.policy+"."+knob]
	return v, ok
}

func (r *ParamReader) fail(knob, val, want string) {
	if r.err == nil {
		r.err = fmt.Errorf("im: policy %q: parameter %s.%s=%q: want %s",
			r.policy, r.policy, knob, val, want)
	}
}

// Int reads an integer knob, returning def when the key is absent.
func (r *ParamReader) Int(knob string, def int) int {
	v, ok := r.lookup(knob)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		r.fail(knob, v, "an integer")
		return def
	}
	return n
}

// Float reads a float knob, returning def when the key is absent.
func (r *ParamReader) Float(knob string, def float64) float64 {
	v, ok := r.lookup(knob)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		r.fail(knob, v, "a number")
		return def
	}
	return f
}

// Err reports the first malformed value, or an unknown-parameter error for
// any key in this policy's namespace that no getter consumed. Factories
// call it once, after reading all their knobs.
func (r *ParamReader) Err() error {
	if r.err != nil {
		return r.err
	}
	known := make(map[string]bool, len(r.known))
	for _, k := range r.known {
		known[k] = true
	}
	var unknown []string
	for k := range r.params {
		rest, ok := strings.CutPrefix(k, r.policy+".")
		if !ok || known[rest] {
			continue
		}
		unknown = append(unknown, k)
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	knobs := make([]string, 0, len(known))
	for k := range known {
		knobs = append(knobs, r.policy+"."+k)
	}
	sort.Strings(knobs)
	if len(knobs) == 0 {
		return fmt.Errorf("im: policy %q: unknown parameter %s (policy takes no parameters)",
			r.policy, strings.Join(unknown, ", "))
	}
	return fmt.Errorf("im: policy %q: unknown parameter %s (known: %s)",
		r.policy, strings.Join(unknown, ", "), strings.Join(knobs, ", "))
}

// ParseParams folds repeated "key=value" pairs (the CLI's -policy-opt
// flag) into a Params map.
func ParseParams(pairs []string) (map[string]string, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	m := make(map[string]string, len(pairs))
	for _, p := range pairs {
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("im: policy option %q: want key=value", p)
		}
		m[k] = v
	}
	return m, nil
}

// ValidateParams checks the shape of every key — "<policy>.<knob>" with a
// registered policy prefix — so a typoed policy name fails configuration
// up front rather than being silently ignored by every factory. Unknown
// knobs within a valid namespace are the owning factory's to reject.
func ValidateParams(params map[string]string) error {
	if len(params) == 0 {
		return nil
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pol, knob, ok := strings.Cut(k, ".")
		if !ok || pol == "" || knob == "" {
			return fmt.Errorf("im: policy option %q: want <policy>.<knob>=value", k)
		}
		if _, err := LookupPolicy(pol); err != nil {
			return fmt.Errorf("im: policy option %q: unknown policy %q (registered: %v)",
				k, pol, Policies())
		}
	}
	return nil
}
