package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
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
		{"a nil pointer on the way is allocated", patchScenario("", "", "/fs/topology/servers", 2),
			func(s *config.Spec) bool { return *s.FS.Topology == config.Topology{Servers: 2} }},
		{"pointer through an array", patchScenario(`{"user_types": [{"name": "heavy", "think_time": {"kind": "exponential", "mean": 5000}, "fraction": 0.5}]}`, "", "/user_types/0/fraction", 1),
			func(s *config.Spec) bool { return len(s.UserTypes) == 1 && s.UserTypes[0].Fraction == 1 }},
		{"pointer into a category", patchScenario("", "", "/categories/2/access_per_byte/mean", 4),
			func(s *config.Spec) bool {
				want := config.DefaultCategories()
				want[2].AccessPerByte.Mean = 4
				return reflect.DeepEqual(s.Categories, want)
			}},
		{"pointer into a fault rule from a patch", patchScenario(`{"fault": {"name": "p", "rules": [{"name": "eio", "ops": ["read"], "prob": 0, "err": "eio"}]}}`, "", "/fault/rules/0/prob", 0.25),
			func(s *config.Spec) bool {
				return s.Fault != nil && len(s.Fault.Rules) == 1 && s.Fault.Rules[0].Prob == 0.25
			}},
		{"pointer into a fault rule from a case", patchScenario("", `{"fault": {"name": "p", "rules": [{"name": "stall", "ops": ["rpc"], "prob": 0.5}]}}`, "/fault/rules/0/latency_us", 300),
			func(s *config.Spec) bool {
				return s.Fault != nil && s.Fault.Rules[0].Latency == 300 && s.Fault.Rules[0].Prob == 0.5
			}},
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
		{"pointer into a fault rule with no plan", patchScenario("", "", "/fault/rules/0/prob", 0.1)},
		{"index past the end", patchScenario("", "", "/user_types/1/fraction", 1)},
		{"append index", patchScenario("", "", "/user_types/-/fraction", 1)},
		{"index with a leading zero", patchScenario("", "", "/user_types/01/fraction", 1)},
		{"signed index", patchScenario("", "", "/user_types/+0/fraction", 1)},
		{"pointer to an array", patchScenario("", "", "/user_types", 1)},
		{"pointer to a string in an array", patchScenario("", "", "/user_types/0/name", 1)},
		{"pointer through a scalar", patchScenario("", "", "/users/x", 1)},
		{"pointer to a struct", patchScenario("", "", "/fs", 1)},
		{"pointer to a string", patchScenario("", "", "/name", 1)},
		{"pointer to an unknown key", patchScenario("", "", "/access_size/average", 1)},
		{"fractional value to an int field", patchScenario("", "", "/fs/server/NFSDs", 1.5)},
		{"value past an int field", patchScenario("", "", "/fs/server/NFSDs", 1e19)},
		{"pointer without a leading slash", patchScenario("", "", "users", 1)},
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

	// A pointer error names the axis, the value and the failing token.
	err := patchScenario("", "", "/user_types/3/think_time/mean", 7).Validate()
	for _, want := range []string{`axis "knob"`, "value 7", `token "3"`} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("index past the end: err = %v, want one naming %s", err, want)
		}
	}
}

// TestArrayPointerSweepRuns: a pointer into an array element reaches the
// run, not only the compiled spec. Both points of a think-time sweep share
// one seed, so only the bound mean tells them apart.
func TestArrayPointerSweepRuns(t *testing.T) {
	sc := patchScenario(`{"users": 4, "system_files": 60, "files_per_user": 12}`, "", "", 0)
	sc.Base.Sessions = 8
	sc.Sweep = []Axis{{Name: "think", Values: []float64{100, 100_000}, Bind: "/user_types/0/think_time/mean"}}
	sc.Output.Columns = []Column{
		{Header: "think (µs)", Metric: MetricValue, Format: FormatF},
		{Header: "response", Metric: MetricResponse},
	}
	res, err := Run(context.Background(), sc, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.(*TableResult).Rows
	if len(rows) != 2 || rows[0][1] == rows[1][1] {
		t.Errorf("the two think-time points respond alike:\n%s", res.Render())
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
