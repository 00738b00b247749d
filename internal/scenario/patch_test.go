package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"uswg/internal/config"
)

// patchScenario is a one-point scenario whose spec comes from a workload
// patch, then an optional one-case axis, then an optional value bound at a
// JSON pointer.
func patchScenario(workload, casePatch, pointer string, value float64) *Scenario {
	sc := &Scenario{Name: "patch", Output: Output{Kind: KindTable, Title: "t",
		Columns: []Column{{Header: "ops", Metric: MetricOps, Format: FormatInt}}}}
	if workload != "" {
		sc.Base.Spec = json.RawMessage(workload)
	}
	if casePatch != "" {
		sc.Sweep = append(sc.Sweep, Axis{Name: "case", Cases: []Case{{Label: "c", Spec: json.RawMessage(casePatch)}}})
	}
	if pointer != "" {
		sc.Sweep = append(sc.Sweep, Axis{Name: "knob", Values: []float64{value}, Bind: pointer})
	}
	return sc
}

// TestSpecPatchSemantics pins how a workload patch, a case patch and a
// pointer bind land in a point's spec, through the JSON codec.
func TestSpecPatchSemantics(t *testing.T) {
	defaultServer := config.Default().FS.Server
	oneNFSD := defaultServer
	oneNFSD.NFSDs = 1
	ok := []struct {
		label string
		sc    *Scenario
		check func(*config.Spec) bool
	}{
		// A plain json.Unmarshal over Default() would decode into the
		// default heavy type and keep its think_time mean under the
		// constant kind.
		{"an array replaces", patchScenario(`{"user_types": `+extremelyHeavy+`}`, "", "", 0),
			func(s *config.Spec) bool { return reflect.DeepEqual(s.UserTypes, config.ExtremelyHeavyPopulation()) }},
		{"objects merge", patchScenario(`{"fs": {"server": {"NFSDs": 1}}}`, "", "", 0),
			func(s *config.Spec) bool { return s.FS.Server == oneNFSD }},
		{"keys match as config.Decode does", patchScenario(`{"fs": {"server": {"nfsds": 1}}}`, "", "", 0),
			func(s *config.Spec) bool { return s.FS.Server == oneNFSD }},
		{"null clears a pointer", patchScenario(`{"fs": {"topology": {"servers": 2}}}`, `{"fs": {"topology": null}}`, "", 0),
			func(s *config.Spec) bool { return s.FS.Topology == nil }},
		{"a case patches after the workload", patchScenario(`{"users": 2}`, `{"users": 3}`, "", 0),
			func(s *config.Spec) bool { return s.Users == 3 }},
		{"a pointer binds after the case", patchScenario("", `{"fs": {"topology": {"client_pool": 4}}}`, "/fs/topology/servers", 2),
			func(s *config.Spec) bool { return *s.FS.Topology == config.Topology{Servers: 2, ClientPool: 4} }},
		{"an integral value reaches an int field", patchScenario("", "", "/fs/server/CacheBlocks", 1e6),
			func(s *config.Spec) bool { return s.FS.Server.CacheBlocks == 1_000_000 }},
	}
	for _, tc := range ok {
		js, err := tc.sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Decode(bytes.NewReader(js))
		if err != nil {
			t.Errorf("%s: Decode: %v", tc.label, err)
			continue
		}
		ps, err := sc.compilePoint(Options{}, 0)
		if err != nil {
			t.Errorf("%s: compile: %v", tc.label, err)
			continue
		}
		if !tc.check(ps.spec) {
			t.Errorf("%s: compiled spec does not hold it", tc.label)
		}
	}

	bad := []struct {
		label string
		sc    *Scenario
	}{
		{"unknown key", patchScenario(`{"userz": 2}`, "", "", 0)},
		{"unknown nested key", patchScenario(`{"fs": {"server": {"nfsdz": 2}}}`, "", "", 0)},
		{"unknown key in a case", patchScenario("", `{"fs": {"kind": "local", "locals": {}}}`, "", 0)},
		{"array patch", patchScenario(`[{"users": 2}]`, "", "", 0)},
		{"number patch", patchScenario(`3`, "", "", 0)},
		{"null patch", patchScenario(`null`, "", "", 0)},
		{"null case patch", patchScenario("", `null`, "", 0)},
		{"patch sets seed", patchScenario(`{"seed": 5}`, "", "", 0)},
		{"patch sets sessions", patchScenario(`{"Sessions": 5}`, "", "", 0)},
		{"case sets sessions", patchScenario("", `{"sessions": 5}`, "", 0)},
		{"pointer sets seed", patchScenario("", "", "/seed", 5)},
		{"pointer sets sessions", patchScenario("", "", "/sessions", 5)},
		{"pointer through an array", patchScenario("", "", "/user_types/0/fraction", 1)},
		{"pointer through a scalar", patchScenario("", "", "/users/x", 1)},
		{"pointer to a struct", patchScenario("", "", "/fs", 1)},
		{"pointer to a string", patchScenario("", "", "/name", 1)},
		{"pointer to an unknown key", patchScenario("", "", "/access_size/average", 1)},
		{"fractional value to an int field", patchScenario("", "", "/fs/server/NFSDs", 1.5)},
	}
	for _, tc := range bad {
		js, err := tc.sc.JSON()
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if _, err := Decode(bytes.NewReader(js)); !errors.Is(err, ErrScenario) {
			t.Errorf("%s: Decode err = %v, want ErrScenario", tc.label, err)
		}
	}
}

// TestValidateCompilesLinearPoints: Validate compiles point 0 and each
// point that moves one axis, never the grid.
func TestValidateCompilesLinearPoints(t *testing.T) {
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i + 1)
	}
	sc := patchScenario("", "", "", 0)
	sc.Sweep = []Axis{
		{Name: "users", Values: values, Bind: BindUsers},
		{Name: "mean", Values: values, Bind: "/access_size/mean"},
	}
	points := sc.checkedPoints()
	if len(points) != 1999 {
		t.Fatalf("checked %d points of a 1000x1000 grid, want 1999", len(points))
	}
	// Every value of each axis is compiled exactly once.
	seen := map[[2]int]bool{}
	for _, idx := range points {
		c := sc.coords(idx)
		if c[0] != 0 && c[1] != 0 {
			t.Fatalf("point %d moves both axes", idx)
		}
		seen[[2]int{c[0], c[1]}] = true
	}
	if len(seen) != 1999 {
		t.Errorf("%d distinct checked points, want 1999", len(seen))
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("valid 1000x1000 sweep rejected: %v", err)
	}
}
