package im

import (
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/intersection"
)

// testFactory is a minimal registrable factory for registry tests.
func testFactory(x *intersection.Intersection, opts PolicyOptions, rng *rand.Rand) (Scheduler, error) {
	return nil, nil
}

func TestRegisterPolicyDuplicatePanics(t *testing.T) {
	RegisterPolicy("zz-registry-dup", PolicyEntry{Factory: testFactory, Protocol: ProtocolTimed})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate RegisterPolicy did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "zz-registry-dup") {
			t.Fatalf("panic %v does not name the duplicated policy", r)
		}
	}()
	RegisterPolicy("zz-registry-dup", PolicyEntry{Factory: testFactory, Protocol: ProtocolTimed})
}

// TestRegisterPolicyIncompleteEntryPanics pins that an entry must name a
// factory and declare its wire protocol: a zero Protocol would otherwise
// run the policy's vehicles on whichever protocol happens to be zero.
func TestRegisterPolicyIncompleteEntryPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		entry PolicyEntry
		want  string
	}{
		{"zz-registry-nofactory", PolicyEntry{Protocol: ProtocolTimed}, "without a factory"},
		{"zz-registry-noproto", PolicyEntry{Factory: testFactory}, "without a protocol"},
		{"zz-registry-badproto", PolicyEntry{Factory: testFactory, Protocol: ProtocolTimed + 1}, "without a protocol"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) || !strings.Contains(msg, tc.name) {
					t.Fatalf("panic %q, want one naming %q and %q", msg, tc.name, tc.want)
				}
				if _, err := LookupPolicy(tc.name); err == nil {
					t.Errorf("rejected entry %q was registered", tc.name)
				}
			}()
			RegisterPolicy(tc.name, tc.entry)
		})
	}
}

func TestNewSchedulerUnknownPolicyListsRegistered(t *testing.T) {
	RegisterPolicy("zz-registry-known", PolicyEntry{Factory: testFactory, Protocol: ProtocolTimed})
	_, schedErr := NewScheduler("zz-no-such-policy", nil, PolicyOptions{}, rand.New(rand.NewSource(1)))
	_, lookupErr := LookupPolicy("zz-no-such-policy")
	for _, tc := range []struct {
		call string
		err  error
	}{{"NewScheduler", schedErr}, {"LookupPolicy", lookupErr}} {
		if tc.err == nil {
			t.Errorf("%s: unknown policy did not error", tc.call)
			continue
		}
		if !strings.Contains(tc.err.Error(), `"zz-no-such-policy"`) {
			t.Errorf("%s: error %q does not name the unknown policy", tc.call, tc.err)
		}
		for _, name := range Policies() {
			if !strings.Contains(tc.err.Error(), name) {
				t.Errorf("%s: error %q does not list registered policy %q", tc.call, tc.err, name)
			}
		}
	}
}

func TestPoliciesSortedAndRegistered(t *testing.T) {
	RegisterPolicy("zz-registry-b", PolicyEntry{Factory: testFactory, Protocol: ProtocolTimed})
	RegisterPolicy("zz-registry-a", PolicyEntry{Factory: testFactory, Protocol: ProtocolTimed})
	names := Policies()
	ia, ib := -1, -1
	for i, n := range names {
		switch n {
		case "zz-registry-a":
			ia = i
		case "zz-registry-b":
			ib = i
		}
		if i > 0 && names[i-1] >= n {
			t.Fatalf("Policies() not sorted: %v", names)
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("registered names missing or misordered in %v", names)
	}
}
