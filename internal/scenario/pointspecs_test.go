package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"uswg/internal/core"
)

// TestBuiltinPointSpecs pins every built-in grid point's compiled spec. For
// each scenario, at Scale 1 and 0.2, one SHA-256 covers every point's
// config.Spec encoding plus its users, value and case label. The golden
// folder runs at Scale 0.2 and sees only the numbers a spec moves; this
// test sees the spec itself, so a change to how points compile shows here
// even where no scale-0.2 number moves.
func TestBuiltinPointSpecs(t *testing.T) {
	want := map[string]string{
		"table5.1":      "7cb85c2e93241242450ea535caadcc8f96d839e59738d732381b2f491fdb519b",
		"table5.2":      "d2a8cbc1cc225211b459d8b7273294e52ecd11165cb60650093f1e256d76da3e",
		"table5.3":      "7f1942dcf529f67ed6ba0a3951415489bdd0b8094f7a1171618775c63d815b25",
		"table5.4":      "6ae4e814a971daac8cf212f0b71703e14fecc95272de2cac63a09c3d054d9fa8",
		"fig5.1":        "e97660e459078cb37514479949ae04773754be3b8e6115183d244b91626c4b99",
		"fig5.2":        "e97660e459078cb37514479949ae04773754be3b8e6115183d244b91626c4b99",
		"fig5.3":        "08945d4f3fa7706b9fb98c5dbc607b99661956545b21f901dac96a927092d99b",
		"fig5.6":        "af7cdac014c0efea8ae847365b0d347637e47220e4b707e2222ae3c2df9d533c",
		"fig5.7":        "0b6238c106df52b51cf8dbdfbffc592745b3b5e6f8cf60f8340695f32bf9a88e",
		"fig5.8":        "657b79c72ad71a5486fca99c568fe81bce6748e5f752091e77279d7bab6b2e2f",
		"fig5.9":        "599e489ad91cd56c1bfaf45a56fa64dd7802a2f8181732c4f0f16ed1269fba03",
		"fig5.10":       "baed186ab497847a69bfcce95f11c1c29b8b9460f866b2ab30c0456f15678b3b",
		"fig5.11":       "ec56fa4f88e1252ebb68041c0633c52d3b0840a299961c47f3b16fe52e6a9347",
		"fig5.12":       "b391a5a6c8c184126688c15769f138ebceaa2d47c2d9c2244f224c4967ba65e7",
		"fault5.1":      "a643f282cfb4a7cdaf62484df7dec2f1b6c1ac67a108fc03c13a26f067b169f0",
		"fault5.2":      "508731ada2b23697c4dd8b0ef0b56aedb981a51c6d1775f21461a7cb52b86fd2",
		"fault5.3":      "00d75a1a47e0acd4e67fb2222ea29480a7d0b417efbe6b0c284abf0b28804160",
		"fault5.4":      "6585f5c12aec4dcec91ad6d37e8f4e9b54c986933e4d4e740bac3a9e52239d65",
		"fault5.5":      "4744b515fd20039e272061b856bf1d84fe24858416e54573e24c2cda7784db4f",
		"fault5.6":      "77ac2e0c65e5ad47bfdb9b89cbe6d8b775df7309f80580b05ed66e99cd9345fa",
		"fault5.7":      "cc531ab322ad56639146e437c557001c190f349281b69447eccdd602b4280dd1",
		"fault5.8":      "7e881474b0fa557c6605d0da57c7ade72831fe25fc16b085e10c299e06ce3b04",
		"scale5.1":      "3ff67918ca75c74b596ca253cd9b36e340673c6483ab1134b5e8405668b0c376",
		"scale5.2x1":    "b5db9b94d46fbf687256e2bb57b950062fbec8262a005df882b10ae1f3dc58fe",
		"scale5.2x2":    "9c394e49cd4fb1a1942523ee57e2c1268daf1a5283195febfad6331702386046",
		"scale5.2x4":    "a38280ca15d79634b65798ba35dcd3e39aa60a51577cbf0009972fb5b1129963",
		"scale5.2x8":    "d63382ccfb3f6a9e912985bf03945d22a456145773ad7898ad6adce12d94306c",
		"scale5.2pool":  "bbe7a42ff1c3aac75ef2dba67a9d3ff8300d71222ca4d046b09900f94a4e1b1a",
		"scale5.3":      "519b5b35c0511f52099467b1b5a4859be338798590d8f52c293e23fda7d692e5",
		"scale5.3curve": "a0e8cd7b0a1e60ff3e8229bbaed5c696e7025a6e79028bde7de211a2f8843619",
	}
	points := 0
	for _, name := range Names() {
		sc, _ := Lookup(name)
		h := sha256.New()
		for _, scale := range []float64{1, 0.2} {
			for i := 0; i < sc.gridSize(); i++ {
				ps, err := sc.compilePoint(Options{Scale: scale}, i)
				if err != nil {
					t.Fatalf("%s: point %d at scale %v: %v", name, i, scale, err)
				}
				if err := ps.spec.Encode(h); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "users=%d value=%v case=%q\n", ps.users, ps.value, ps.caseLabel)
				points++
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: compiled point specs digest %s, want %s", name, got, want[name])
		}
	}
	if points != 236 {
		t.Errorf("compiled %d points, want 236", points)
	}
}

// TestZeroFaultPointsRunAsHealthy: a fault sweep's zero-valued point keeps
// its plan, a rule that never fires (prob 0) or injects 0 µs (latency 0),
// and runs exactly as it would with no plan at all. That is why a zero
// point needs no special case. Each zero point of fault5.1, fault5.2 and
// fault5.3 at Scale 0.2 runs twice, with its compiled plan and with none;
// the Results, every counter of the snapshots and every metric the scenario
// renders must match.
func TestZeroFaultPointsRunAsHealthy(t *testing.T) {
	opts := Options{Scale: 0.2}
	points := 0
	for _, name := range []string{"fault5.1", "fault5.2", "fault5.3"} {
		sc, _ := Lookup(name)
		for i := 0; i < sc.gridSize(); i++ {
			ps, err := sc.compilePoint(opts, i)
			if err != nil {
				t.Fatalf("%s point %d: %v", name, i, err)
			}
			if ps.value != 0 {
				continue
			}
			if ps.spec.Fault == nil {
				t.Fatalf("%s point %d: the zero point carries no plan", name, i)
			}
			points++
			withPlan, err := sc.runPoint(opts, i)
			if err != nil {
				t.Fatal(err)
			}
			ps.spec.Fault = nil
			gen, err := core.NewGenerator(ps.spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := gen.Run()
			if err != nil {
				t.Fatal(err)
			}
			healthy := &pointRun{pointSpec: ps, res: res, gen: gen, metrics: gen.Metrics()}
			if !reflect.DeepEqual(withPlan.res, healthy.res) {
				t.Errorf("%s point %d: the zero-valued plan changes the run's Result", name, i)
			}
			if !reflect.DeepEqual(withPlan.metrics, healthy.metrics) {
				t.Errorf("%s point %d: the zero-valued plan changes the run's counters:\n%v\n%v", name, i, withPlan.metrics, healthy.metrics)
			}
			for _, c := range slices.Concat(sc.Output.Columns, sc.Output.Cells) {
				a, errA := withPlan.metric(c.Metric)
				b, errB := healthy.metric(c.Metric)
				if errA != nil || errB != nil || math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s point %d: %s is %v with the zero plan and %v without (%v, %v)", name, i, c.Metric, a, b, errA, errB)
				}
			}
		}
	}
	if points != 8 {
		t.Errorf("ran %d zero-valued points, want 8", points)
	}
}
