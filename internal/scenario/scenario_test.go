package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/trace"
)

// small runs sweeps at a fraction of the paper session counts.
var small = Options{Scale: 0.05}

// TestBuiltinsRoundTripJSON pins the built-in files to the codec: builtin/
// holds exactly the files builtinOrder names, each file is a fixed point of
// Encode(Decode(f)) byte for byte, and each registered scenario dumps back
// to its file.
func TestBuiltinsRoundTripJSON(t *testing.T) {
	entries, err := os.ReadDir("builtin")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	var want []string
	for _, name := range builtinOrder {
		want = append(want, name+".json")
	}
	sort.Strings(want)
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("builtin/ holds %v\nbuiltinOrder names %v", files, want)
	}
	for _, name := range Names() {
		data, err := os.ReadFile(filepath.Join("builtin", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if js, err := sc.JSON(); err != nil || !bytes.Equal(js, data) {
			t.Errorf("%s: Encode(Decode(file)) differs from the file (err %v)", name, err)
		}
		reg, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s: not registered", name)
		}
		if js, err := reg.JSON(); err != nil || !bytes.Equal(js, data) {
			t.Errorf("%s: registered scenario does not dump to its file (err %v)", name, err)
		}
	}
}

// TestDumpedScenarioRunsIdentical is the dump → parse → Run contract: a
// built-in exported as JSON and re-imported must render byte-identical to
// the registered value.
func TestDumpedScenarioRunsIdentical(t *testing.T) {
	for _, name := range []string{"table5.4", "fig5.1", "fault5.3"} {
		sc, _ := Lookup(name)
		js, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(context.Background(), sc, small)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), back, small)
		if err != nil {
			t.Fatal(err)
		}
		if a.Render() != b.Render() {
			t.Errorf("%s: dumped scenario renders differently from registered twin", name)
		}
	}
}

// extremelyHeavy is config.ExtremelyHeavyPopulation() as a patch value.
const extremelyHeavy = `[{"name": "extremely-heavy", "think_time": {"kind": "constant"}, "fraction": 1}]`

// customJSON is a from-scratch scenario a user could write: a user sweep
// over a bursty wire (a fault plan with the Gilbert-Elliott knob in the
// spec patch), streaming sink, curve output.
const customJSON = `{
  "name": "degraded-sweep",
  "workload": {
    "sessions": 10,
    "sessions_per_user": true,
    "spec": {
      "user_types": ` + extremelyHeavy + `,
      "system_files": 60,
      "files_per_user": 12,
      "fault": {
        "name": "bursty-wire",
        "rules": [{"name": "burst", "ops": ["net"], "drop": true,
                   "burst": {"p_enter": 0.002, "p_exit": 0.1}}],
        "net_timeout_us": 50000,
        "net_retries": 3
      }
    }
  },
  "sweep": [{"name": "users", "values": [2, 4, 6], "bind": "/users"}],
  "seed_salt": {"from": "users", "mul": 7, "add": 1},
  "output": {
    "kind": "curve",
    "title": "degraded wire sweep",
    "x": "users", "y": "response-per-byte",
    "xlabel": "users", "ylabel": "µs/byte",
    "columns": [
      {"header": "users", "metric": "users", "format": "int"},
      {"header": "drops", "metric": "netsim.drops", "format": "int"},
      {"header": "µs/byte", "metric": "response-per-byte", "format": "f"}
    ]
  }
}`

// TestCustomJSONScenarioDeterministicAcrossParallelism decodes a scenario
// from JSON — sweep axis plus a fault plan in the spec patch — and requires end-to-end output to
// be byte-identical at any parallelism (the acceptance bar for the data
// path).
func TestCustomJSONScenarioDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) Result {
		sc, err := Decode(strings.NewReader(customJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), sc, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(1)
	seq := first.Render()
	if seq == "" {
		t.Fatal("empty render")
	}
	for _, par := range []int{4, 8} {
		if got := run(par).Render(); got != seq {
			t.Errorf("parallel %d output diverges from sequential", par)
		}
	}
	// The bursty wire must actually have dropped messages at some point:
	// a non-zero cell in the drops column (index 1), not just the header.
	curve, ok := first.(*CurveResult)
	if !ok {
		t.Fatalf("result type %T", first)
	}
	dropped := false
	for _, row := range curve.Rows {
		if row[1] != "0" {
			dropped = true
		}
	}
	if !dropped {
		t.Errorf("bursty wire dropped nothing (burst knob lost in decode?):\n%s", seq)
	}
}

// TestFault55BurstScenario runs the registered degraded-wire scenario and
// checks the burst knob bites: the bursty rows record drops and
// retransmissions the clean row does not.
func TestFault55BurstScenario(t *testing.T) {
	sc, ok := Lookup("fault5.5")
	if !ok {
		t.Fatal("fault5.5 not registered")
	}
	res, err := Run(context.Background(), sc, Options{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := res.(*TableResult)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	if len(tr.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tr.Rows))
	}
	// Row 0 is the clean wire: zero drops. Rows 1-2 degrade.
	if tr.Rows[0][1] != "0" {
		t.Errorf("clean wire drops = %s, want 0", tr.Rows[0][1])
	}
	degraded := false
	for _, row := range tr.Rows[1:] {
		if row[1] != "0" {
			degraded = true
		}
	}
	if !degraded {
		t.Errorf("no bursty row dropped anything:\n%s", res.Render())
	}
}

// negativeMinAxis sweeps the access-size minimum over a negative and a zero
// bound (the workload truncates at a maximum, so both are valid bounds),
// salted by salt.
func negativeMinAxis(salt string) func(*Scenario) {
	return func(sc *Scenario) {
		sc.Base.Spec = json.RawMessage(`{"access_size": {"kind": "exponential", "mean": 1024, "max": 65536}}`)
		sc.Sweep[0] = Axis{Name: "min", Values: []float64{-3, 0}, Bind: "/access_size/min"}
		sc.Seed = Salt{From: salt, Mul: 1}
		sc.Output.X = MetricValue
	}
}

// TestValidationErrors enumerates malformed scenarios the codec must
// reject.
func TestValidationErrors(t *testing.T) {
	// withFaultAxis adds an "eio" fault plan to the workload patch and an
	// axis binding the given values at /fault/rules/0/<field>.
	withFaultAxis := func(field string, values ...float64) func(*Scenario) {
		return func(sc *Scenario) {
			sc.Base.Spec = json.RawMessage(`{"system_files": 60, "files_per_user": 12,
				"fault": {"name": "p", "rules": [{"name": "eio", "ops": ["read", "write"], "prob": 0, "err": "eio"}]}}`)
			sc.Sweep = append(sc.Sweep, Axis{Name: "knob", Values: values, Bind: "/fault/rules/0/" + field})
		}
	}
	cases := []struct {
		label string
		mut   func(*Scenario)
	}{
		{"missing name", func(sc *Scenario) { sc.Name = "" }},
		{"unknown kind", func(sc *Scenario) { sc.Output.Kind = "pie-chart" }},
		{"unknown metric", func(sc *Scenario) { sc.Output.Columns[0].Metric = "latency-p99" }},
		{"unknown format", func(sc *Scenario) { sc.Output.Columns[0].Format = "hex" }},
		{"unknown bind", func(sc *Scenario) { sc.Sweep[0].Bind = "frobnicate" }},
		{"fractional users", func(sc *Scenario) { sc.Sweep[0].Values = []float64{1.5} }},
		{"empty axis", func(sc *Scenario) { sc.Sweep[0].Values = nil }},
		{"axis without name", func(sc *Scenario) { sc.Sweep[0].Name = "" }},
		{"bad salt source", func(sc *Scenario) { sc.Seed.From = "moon-phase" }},
		{"mean(std) on a scalar metric", func(sc *Scenario) { sc.Output.Columns[0].Format = FormatMeanStd }},
		{"fractional value salt", func(sc *Scenario) {
			sc.Sweep[0] = Axis{Name: "rate", Values: []float64{0.01, 0.05}, Bind: "/access_size/mean"}
			sc.Seed = Salt{From: SaltValue, Mul: 1}
			sc.Output.X = MetricValue
		}},
		{"negative value salt", negativeMinAxis(SaltValue)},
		{"patched trace mode", func(sc *Scenario) { sc.Base.Spec = json.RawMessage(`{"trace": {"mode": "log"}}`) }},
		{"negative trace window", func(sc *Scenario) { sc.Base.Spec = json.RawMessage(`{"trace": {"window_us": -1}}`) }},
		{"curve without axis", func(sc *Scenario) { sc.Sweep = nil }},
		{"curve with bad x", func(sc *Scenario) { sc.Output.X = "ops" }},
		{"fault prob 1.5", withFaultAxis("prob", 0, 0.01, 1.5)},
		{"fault latency -5", withFaultAxis("latency_us", 0, 1000, -5)},
	}
	base := func() *Scenario {
		return &Scenario{
			Name: "valid",
			Base: Workload{
				Sessions: 10, SessionsPerUser: true,
				Spec: json.RawMessage(`{"system_files": 60, "files_per_user": 12}`),
			},
			Sweep: []Axis{{Name: "users", Values: []float64{1, 2}, Bind: BindUsers}},
			Seed:  Salt{From: SaltUsers, Mul: 1},
			Output: Output{
				Kind: KindCurve, Title: "t",
				X: MetricUsers, XLabel: "users", YLabel: "µs/byte", Y: MetricRPB,
				Columns: []Column{
					{Header: "users", Metric: MetricUsers, Format: FormatInt},
					{Header: "µs/byte", Metric: MetricRPB, Format: FormatF},
				},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario rejected: %v", err)
	}
	// The negative axis values themselves are valid truncation bounds: only
	// the value salt rejects them.
	indexSalted := base()
	negativeMinAxis(SaltIndex)(indexSalted)
	if err := indexSalted.Validate(); err != nil {
		t.Fatalf("negative access-size minimum under an index salt rejected: %v", err)
	}
	for _, tc := range cases {
		sc := base()
		tc.mut(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", tc.label)
		} else {
			// The error must surface through Decode too.
			js, jerr := sc.JSON()
			if jerr == nil {
				if _, derr := Decode(bytes.NewReader(js)); derr == nil {
					t.Errorf("%s: Decode accepted an invalid scenario", tc.label)
				}
			}
		}
	}

	// A scale no run can honor fails before any point runs; 0 means 1.0.
	for _, scale := range []float64{-0.5, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run(context.Background(), base(), Options{Scale: scale}); !errors.Is(err, ErrScenario) {
			t.Errorf("scale %v: err = %v, want ErrScenario", scale, err)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}

	// A fault-bound value out of its rule's range fails at decode, naming
	// the axis and the value; in-range values pass.
	bad := base()
	withFaultAxis("prob", 0, 1.5)(bad)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), `axis "knob"`) || !strings.Contains(err.Error(), "1.5") {
		t.Errorf("fault prob 1.5: err = %v, want one naming axis \"knob\" and 1.5", err)
	}
	for _, mut := range []func(*Scenario){
		withFaultAxis("prob", 0, 0.01, 1),
		withFaultAxis("latency_us", 0, 1000),
	} {
		sc := base()
		mut(sc)
		if err := sc.Validate(); err != nil {
			t.Errorf("in-range fault axis rejected: %v", err)
		}
	}

	// A usage title whose fmt verbs do not match the session-count argument
	// must fail validation rather than corrupt the rendered output.
	usage := func(title string) *Scenario {
		return &Scenario{Name: "t2", Base: Workload{Sessions: 10}, Output: Output{Kind: KindUsage, Title: title}}
	}
	for _, title := range []string{"no verb at all", "80% heavy (%d sessions)", "%s sessions"} {
		if err := usage(title).Validate(); err == nil {
			t.Errorf("usage title %q accepted", title)
		}
	}
	if err := usage("fine (%d sessions), 100%% data").Validate(); err != nil {
		t.Errorf("escaped %%%% in usage title rejected: %v", err)
	}

	// Anything but whitespace after the scenario object fails: garbage, a
	// second object (two files concatenated), a stray closing brace.
	js, err := base().JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"garbage", string(js), "}"} {
		if _, err := Decode(strings.NewReader(string(js) + tail)); !errors.Is(err, ErrScenario) {
			t.Errorf("trailing %.20q: err = %v, want ErrScenario", tail, err)
		}
	}
	if _, err := Decode(strings.NewReader(string(js) + " \t\r\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}

	// Unknown JSON fields fail loudly.
	if _, err := Decode(strings.NewReader(`{"name": "x", "sessionz": 5, "output": {"kind": "table"}}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// Old-form workload keys are unknown fields: spec knobs live in the
	// workload's spec patch.
	for _, key := range []string{`"users": 2`, `"trace": "stream"`, `"topology": {"servers": 2}`, `"nfsds": 1`} {
		old := strings.Replace(string(js), `"sessions": 10,`, `"sessions": 10, `+key+`,`, 1)
		if _, err := Decode(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("old-form workload key %s: err = %v, want unknown field", key, err)
		}
	}
	// The topology block is the fleet shape only; the daemon count is
	// fs.server's NFSDs, so topology.nfsds is unknown too.
	topo := base()
	topo.Base.Spec = json.RawMessage(`{"fs": {"topology": {"servers": 2}}}`)
	if js, err = topo.JSON(); err != nil {
		t.Fatal(err)
	}
	nfsds := strings.Replace(string(js), `"servers": 2`, `"servers": 2, "nfsds": 2`, 1)
	if _, err := Decode(strings.NewReader(nfsds)); err == nil || !strings.Contains(err.Error(), `unknown field "nfsds"`) {
		t.Errorf("topology nfsds: err = %v, want unknown field \"nfsds\"", err)
	}
	// A grid whose row axis does not bind users is rejected.
	grid := &Scenario{
		Name: "g",
		Base: Workload{Spec: json.RawMessage(`{"fault": {"name": "p", "rules": [{"name": "r", "ops": ["read"], "prob": 0, "err": "eio"}]}}`)},
		Sweep: []Axis{
			{Name: "rate", Values: []float64{0.1}, Bind: "/fault/rules/0/prob"},
			{Name: "more", Values: []float64{256}, Bind: "/access_size/mean"},
		},
		Output: Output{
			Kind: KindGrid, Title: "t", RowHeader: "users", ColFormat: FormatPct,
			Cells: []Column{{Header: "µs/B @%s", Metric: MetricRPB, Format: FormatF}},
		},
	}
	if err := grid.Validate(); err == nil {
		t.Error("grid without a users row axis accepted")
	}
}

// TestHugeScaleFails: a scale whose session count does not fit an int
// fails naming the scale instead of wrapping to a tiny run. At Scale 1e19
// every fig5.6 point fails to compile, so Run executes none; at 1e17 the
// per-user count fits but the product with 2 users does not.
func TestHugeScaleFails(t *testing.T) {
	sc, _ := Lookup("fig5.6")
	huge := Options{Scale: 1e19}
	for i := 0; i < sc.gridSize(); i++ {
		if _, err := sc.compilePoint(huge, i); !errors.Is(err, ErrScenario) {
			t.Errorf("fig5.6 point %d at scale 1e19: err = %v, want ErrScenario", i, err)
		}
	}
	if _, err := Run(context.Background(), sc, huge); !errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), "scale 1e+19") {
		t.Errorf("Run at scale 1e19: err = %v, want ErrScenario naming the scale", err)
	}
	if _, err := sc.compilePoint(Options{Scale: 1e17}, 1); !errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), "scale 1e+17") {
		t.Errorf("2 users at scale 1e17: err = %v, want ErrScenario naming the scale", err)
	}
	for _, name := range []string{"table5.3", "scale5.1"} {
		sc, _ := Lookup(name)
		if _, err := sc.compilePoint(Options{Scale: 1e300}, 0); !errors.Is(err, ErrScenario) {
			t.Errorf("%s at scale 1e300: err = %v, want ErrScenario", name, err)
		}
	}
}

// withTraceMode returns the spec patch with its trace block replaced by one
// that selects mode.
func withTraceMode(t *testing.T, patch json.RawMessage, mode string) json.RawMessage {
	t.Helper()
	m := map[string]any{}
	if patch != nil {
		if err := json.Unmarshal(patch, &m); err != nil {
			t.Fatal(err)
		}
	}
	m["trace"] = map[string]string{"mode": mode}
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// builtinCopy decodes a private copy of a registered scenario.
func builtinCopy(t *testing.T, name string) *Scenario {
	t.Helper()
	reg, _ := Lookup(name)
	js, err := reg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Decode(bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFullRecordOutputsRejectStreaming: an output that reads full records
// compiles every checked point to trace mode log, whether the need comes
// from a column, a curve axis or a grid cell, and an output that does not
// (fig5.6, and table5.2, whose usage the Analysis folds) compiles to
// stream. No patch can make a point stream instead: a workload or case
// patch that sets the mode fails Decode, naming the workload or the case.
func TestFullRecordOutputsRejectStreaming(t *testing.T) {
	shapes := []struct {
		label, name, mode string
		mut               func(*Scenario)
	}{
		{"write-avail column", "fault5.4", config.TraceLog, nil},
		{"write-avail curve", "fault5.4", config.TraceLog, func(sc *Scenario) {
			sc.Output = Output{Kind: KindCurve, Title: "t", X: MetricUsers, Y: MetricWriteAvailPos,
				Columns: []Column{{Header: "ops", Metric: MetricOps, Format: FormatInt}}}
		}},
		{"write-avail grid cell", "fault5.1", config.TraceLog, func(sc *Scenario) {
			sc.Output.Cells = append(sc.Output.Cells, Column{Header: "write avail @%s", Metric: MetricWriteAvailPre, Format: FormatPct})
		}},
		{"no full records", "fig5.6", config.TraceStream, nil},
		{"usage output", "table5.2", config.TraceStream, nil},
	}
	for _, tc := range shapes {
		sc := builtinCopy(t, tc.name)
		if tc.mut != nil {
			tc.mut(sc)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		for _, idx := range sc.checkedPoints() {
			ps, err := sc.compilePoint(Options{}, idx)
			if err != nil {
				t.Fatal(err)
			}
			if ps.spec.Trace.Mode != tc.mode {
				t.Errorf("%s: %s compiles trace mode %q, want %q", tc.label, sc.pointName(idx), ps.spec.Trace.Mode, tc.mode)
			}
		}
	}

	decode := func(sc *Scenario) error {
		js, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Decode(bytes.NewReader(js))
		return err
	}
	for _, mode := range []string{config.TraceLog, config.TraceStream} {
		sc := builtinCopy(t, "fault5.4")
		sc.Base.Spec = withTraceMode(t, sc.Base.Spec, mode)
		if err := decode(sc); !errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), "workload spec") {
			t.Errorf("a workload patching trace mode %q: err = %v, want ErrScenario naming the workload", mode, err)
		}
		sc = builtinCopy(t, "fault5.4")
		sticky := &sc.Sweep[0].Cases[2]
		sticky.Spec = withTraceMode(t, sticky.Spec, mode)
		if err := decode(sc); !errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), `case "disk fills (sticky)"`) {
			t.Errorf("a case patching trace mode %q: err = %v, want ErrScenario naming the case", mode, err)
		}
	}
}

// TestDensityPanelsNeedPDF: a densities panel compiles through gds.Compile
// at validation, so a distribution with no PDF to plot fails Decode rather
// than the run.
func TestDensityPanelsNeedPDF(t *testing.T) {
	sc := &Scenario{Name: "dens", Output: Output{Kind: KindDensities, Title: "t",
		Densities: []DensityPanel{{Label: "f", Dist: config.Exp(10)}}}}
	if err := sc.Validate(); err != nil {
		t.Fatalf("exponential panel rejected: %v", err)
	}
	sc.Output.Densities[0].Dist = config.DistSpec{Kind: config.KindTableCDF, Xs: []float64{0, 1}, Ps: []float64{0, 1}}
	js, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(js)); !errors.Is(err, ErrScenario) {
		t.Errorf("table-cdf panel: Decode err = %v, want ErrScenario", err)
	}
}

// TestRegistryRejectsDuplicates covers duplicate names and alias clashes,
// and a built-in file whose name field disagrees with its file name.
func TestRegistryRejectsDuplicates(t *testing.T) {
	mk := func(name string, alias ...string) *Scenario {
		return &Scenario{Name: name, Aliases: alias, Output: Output{Kind: KindUserTypes, Title: "t"}}
	}
	if err := register(mk("table5.1")); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := register(mk("fig5.4")); err == nil {
		t.Error("name shadowing an alias accepted")
	}
	if err := register(mk("reg-test-unique", "fig5.6")); err == nil {
		t.Error("alias shadowing a scenario accepted")
	}
	if err := registerFile("builtin/fig5.6.json", "fig5.7"); err == nil {
		t.Error("file whose name field differs from its file name accepted")
	}
	if _, ok := Lookup("fig5.4"); !ok {
		t.Error("alias fig5.4 does not resolve")
	}
	sc4, _ := Lookup("fig5.4")
	sc3, _ := Lookup("fig5.3")
	if sc4 != sc3 {
		t.Error("fig5.4 and fig5.3 resolve to different scenarios")
	}
}

// TestTransientValidation: the transient output contract needs a window
// width and refuses sweep axes.
func TestTransientValidation(t *testing.T) {
	transient := func(window float64) *Scenario {
		return &Scenario{
			Name:   "t",
			Base:   Workload{Spec: json.RawMessage(fmt.Sprintf(`{"users": 2, "trace": {"window_us": %v}}`, window))},
			Output: Output{Kind: KindTransient, Title: "transient"},
		}
	}
	if err := transient(0).Validate(); err == nil {
		t.Error("transient without trace_window_us must fail validation")
	}
	swept := transient(1e6)
	swept.Sweep = []Axis{{Name: "users", Values: []float64{1, 2}, Bind: BindUsers}}
	if err := swept.Validate(); err == nil {
		t.Error("transient with a sweep axis must fail validation")
	}
	if err := transient(1e6).Validate(); err != nil {
		t.Errorf("valid transient rejected: %v", err)
	}
}

// TestTransientChurnDeterministicAcrossParallelism runs the registered
// churn figure at -parallel 1 and 8 and requires byte-identical output —
// the acceptance bar for the lifecycle engine's determinism contract.
func TestTransientChurnDeterministicAcrossParallelism(t *testing.T) {
	sc, ok := Lookup("fault5.6")
	if !ok {
		t.Fatal("fault5.6 not registered")
	}
	run := func(par int) string {
		res, err := Run(context.Background(), sc, Options{Scale: 0.1, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	one, eight := run(1), run(8)
	if one != eight {
		t.Error("fault5.6 renders differently at parallelism 1 vs 8")
	}
	if !strings.Contains(one, "churn:") {
		t.Error("churn summary line missing — the lifecycle took no effect")
	}
}

// TestTransientSummaryPinned pins every summary line of the three transient
// built-ins to recorded text. No golden file holds these lines, because the
// artifact diff skips logs/. fault5.7 runs at full scale, the smallest at
// which its outage starts; the other two run at 0.2.
func TestTransientSummaryPinned(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
		want  []string
	}{
		{"fault5.6", 0.2, []string{
			"run: 40 sessions, 24996 ops, 100.00% available, 51 s virtual",
			"churn: 3 workstation crashes, 3 cold reboots, 3 truncated sessions, 0 departed users",
		}},
		{"fault5.7", 1, []string{
			"run: 200 sessions, 137236 ops, 100.00% available, 361 s virtual",
			"network: 56 drops, 56 retransmits, 0 give-ups, 127.6 s blocked in retry holds",
			"outage: 56 calls swallowed by the dead server",
			"server: 1 restarts (block cache dropped)",
			"outage window: 60-90 s",
			"baseline response: 7930 µs (pre-outage mean)",
			"time to recover: 40 s (response back to baseline by t=130 s)",
		}},
		{"fault5.8", 0.2, []string{
			"run: 60 sessions, 45798 ops, 100.00% available, 97 s virtual",
		}},
	}
	for _, tc := range cases {
		sc, _ := Lookup(tc.name)
		res, err := Run(context.Background(), sc, Options{Scale: tc.scale, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.(*TransientResult).Summary; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s summary:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestUsageTablePinnedAtPaperScale pins table5.2 at Scale 1, the thesis's
// 200 sessions, to the rows recorded when a scan of the full-record log
// made them. The golden folder covers only Scale 0.2.
func TestUsageTablePinnedAtPaperScale(t *testing.T) {
	sc, _ := Lookup("table5.2")
	res, err := Run(context.Background(), sc, Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.(*TableResult)
	if want := "Table 5.2 — user characterization by file category (200 sessions)"; tr.Title != want {
		t.Errorf("title %q, want %q", tr.Title, want)
	}
	want := [][]string{
		{"DIR/USER/RDONLY", "3.13", "2.90", "69.00", "0", "2.56", "73.00"},
		{"DIR/OTHER/RDONLY", "2.28", "2.50", "70.00", "0", "2.57", "77.00"},
		{"REG/USER/RDONLY", "1.42", "6.00", "100", "1.45", "6.05", "100"},
		{"REG/USER/NEW", "2.36", "4.00", "40.00", "2.82", "3.31", "42.00"},
		{"REG/USER/RD-WRT", "3.50", "2.20", "46.00", "3.66", "1.75", "44.00"},
		{"REG/USER/TEMP", "2.00", "9.70", "59.00", "2.24", "9.32", "64.00"},
		{"NOTES/OTHER/RDONLY", "0.7500", "11.30", "53.00", "0.8036", "10.49", "50.00"},
		{"NOTES/OTHER/RD-WRT", "1.77", "5.70", "38.00", "1.85", "5.75", "36.50"},
		{"OTHER/OTHER/RDONLY", "2.11", "3.10", "55.00", "1.96", "3.34", "54.50"},
	}
	if !reflect.DeepEqual(tr.Rows, want) {
		t.Errorf("rows:\n got %q\nwant %q", tr.Rows, want)
	}
}

// TestTransientRowsLabelSubSecondWindows checks that each window is
// labelled by its exact start: sub-second windows do not round onto whole
// seconds.
func TestTransientRowsLabelSubSecondWindows(t *testing.T) {
	tr := TransientResult{WidthUS: 250000}
	for i := range 5 {
		tr.Windows = append(tr.Windows, trace.WindowStats{Start: float64(i) * tr.WidthUS, End: float64(i+1) * tr.WidthUS})
	}
	var got []string
	for _, row := range tr.rows() {
		got = append(got, row[0])
	}
	if want := []string{"0", "0.25", "0.5", "0.75", "1"}; !slices.Equal(got, want) {
		t.Errorf("window labels %q, want %q", got, want)
	}
}

// TestTransientResultIsTabular: the machine view carries the same windows
// the rendered table shows.
func TestTransientResultIsTabular(t *testing.T) {
	sc, _ := Lookup("fault5.7")
	res, err := Run(context.Background(), sc, Options{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := res.(*TransientResult)
	if !ok {
		t.Fatalf("fault5.7 returned %T, want *TransientResult", res)
	}
	tab, ok := res.(Tabular)
	if !ok {
		t.Fatal("TransientResult must implement Tabular")
	}
	_, headers, rows := tab.Table()
	if len(headers) == 0 || len(rows) != len(tr.Windows) {
		t.Errorf("tabular form: %d headers, %d rows for %d windows", len(headers), len(rows), len(tr.Windows))
	}
	joined := strings.Join(tr.Summary, "\n")
	if !strings.Contains(joined, "give-ups") {
		t.Error("summary must report give-ups (the hard-mount contract)")
	}
}
