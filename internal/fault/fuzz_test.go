package fault

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// builtinPlans returns every fault plan the fault5.x built-in scenarios
// carry — the "fault" of each spec patch, the workload's or a sweep
// case's — read from the scenario files themselves, so the seed corpus
// cannot drift from them.
func builtinPlans(f *testing.F) [][]byte {
	files, err := filepath.Glob(filepath.Join("..", "scenario", "builtin", "fault5.*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no fault5.x built-ins found (%v)", err)
	}
	var plans [][]byte
	var walk func(v any, inSpec bool)
	walk = func(v any, inSpec bool) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				if inSpec && k == "fault" {
					js, err := json.Marshal(x)
					if err != nil {
						f.Fatal(err)
					}
					plans = append(plans, js)
				}
				walk(x, k == "spec")
			}
		case []any:
			for _, x := range v {
				walk(x, false)
			}
		}
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		walk(v, false)
	}
	if len(plans) == 0 {
		f.Fatal("the fault5.x built-ins carry no plan")
	}
	slices.SortFunc(plans, bytes.Compare) // seed order independent of map iteration
	return plans
}

// decodePlan strict-decodes one JSON plan: unknown fields fail, as they do
// in a spec file.
func decodePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}

// fuzzLabels is every operation label an attach point asks the engine
// about, in a fixed order: the vfs ops, their host-syscall forms, and the
// wire and server labels.
func fuzzLabels() []string {
	var ops []string
	for _, op := range slices.Sorted(maps.Keys(vfsOps)) {
		ops = append(ops, op, "os."+op)
	}
	return append(ops, OpNet, OpRPC)
}

// FuzzPlan drives fault-plan validation with any JSON: decoding never
// panics, a plan Validate accepts builds an engine, and over a few hundred
// calls at rising virtual time that engine's verdicts are sane — finite,
// non-negative latencies, a partial fraction in [0, 1), no rule past its
// max_fires — and reproducible: a second engine with the same plan and
// seed agrees call by call. The seeds are the plans the fault5.x
// built-ins carry.
func FuzzPlan(f *testing.F) {
	plans := builtinPlans(f)
	for _, js := range plans {
		p, err := decodePlan(js)
		if err != nil {
			f.Fatalf("built-in plan %s does not decode: %v", js, err)
		}
		if err := p.Validate(); err != nil {
			f.Fatalf("built-in plan %s does not validate: %v", js, err)
		}
		f.Add(js, uint64(1991))
	}
	labels := fuzzLabels()
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		plan, err := decodePlan(data)
		if err != nil || plan.Validate() != nil {
			return
		}
		a, err := NewEngine(plan, seed)
		if err != nil {
			t.Fatalf("Validate accepted %s but NewEngine failed: %v", data, err)
		}
		b, err := NewEngine(plan, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Sweep virtual time past every window the plan names, so rule
		// windows and outages open and close inside the run.
		horizon := 1e6
		for _, r := range plan.Rules {
			horizon = math.Max(horizon, math.Max(r.After, r.Until))
		}
		for _, o := range plan.ServerOutages {
			horizon = math.Max(horizon, o.End)
		}
		const calls = 300
		for i := 0; i < calls; i++ {
			now := math.Min(horizon*1.25, math.MaxFloat64) / calls * float64(i)
			for _, op := range labels {
				oa, fa := a.Eval(op, now)
				ob, fb := b.Eval(op, now)
				if fa != fb || !sameOutcome(oa, ob) {
					t.Fatalf("call %d %s at %v: engines disagree: %+v/%v vs %+v/%v", i, op, now, oa, fa, ob, fb)
				}
				if !fa {
					continue
				}
				if !finiteNonNeg(oa.Latency) {
					t.Fatalf("call %d %s: latency %v", i, op, oa.Latency)
				}
				if oa.Partial < 0 || oa.Partial >= 1 {
					t.Fatalf("call %d %s: partial %v out of [0, 1)", i, op, oa.Partial)
				}
			}
			da, ma := a.Message(now)
			db, mb := b.Message(now)
			if da != db || ma != mb {
				t.Fatalf("call %d: Message disagrees: %v/%v vs %v/%v", i, da, ma, db, mb)
			}
			if !finiteNonNeg(ma) {
				t.Fatalf("call %d: Message delay %v", i, ma)
			}
			sa, sb := a.Stall(now), b.Stall(now)
			if sa != sb {
				t.Fatalf("call %d: Stall disagrees: %v vs %v", i, sa, sb)
			}
			if !finiteNonNeg(sa) {
				t.Fatalf("call %d: Stall %v", i, sa)
			}
		}
		for i, fr := range a.FiresByRule() {
			if limit := plan.Rules[i].MaxFires; limit > 0 && fr.Fires > int64(limit) {
				t.Fatalf("rule %q fired %d times, max_fires %d", fr.Rule, fr.Fires, limit)
			}
		}
	})
}

func sameOutcome(a, b Outcome) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	return a.Rule == b.Rule && a.Kind == b.Kind && a.Latency == b.Latency && a.Partial == b.Partial && a.Drop == b.Drop
}

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
