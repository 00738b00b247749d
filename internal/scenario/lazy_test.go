package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// lazyDetScenario is the lazy-materialization determinism fixture: a pooled
// two-island fleet with more users than sessions, built lazy or eager by
// the flag. The fixture sits inside the byte-identity boundary DESIGN.md
// documents: server and client caches are sized not to evict (LRU recency
// order is the one shared state whose history lazy construction interleaves
// differently — pooled clients see it directly, because eager warming reads
// every registered user's files through the shared pool while lazy warming
// reads only the materialized users'), and arrivals are simultaneous, so
// lazy materialization allocates inode numbers in the same order the eager
// build did — with an arrival window the allocation follows arrival order
// instead and the disk-arm seek pattern shifts. The materialized count is
// left out of the
// columns because it reports a different quantity by design (spec
// population eager, arrived population lazy). Everything else — seeds,
// sweep, columns — is identical, so the two renders must agree byte for
// byte.
func lazyDetScenario(name string, lazy bool) *Scenario {
	return &Scenario{
		Name: name,
		Base: Workload{
			Sessions: 60,
			Spec: json.RawMessage(fmt.Sprintf(`{
				"user_types": %s,
				"system_files": 30, "files_per_user": 4,
				"fs": {
					"server": {"CacheBlocks": 1048576},
					"client": {"CacheBlocks": 1048576},
					"topology": {"servers": 2, "client_pool": 4}
				},
				"lazy_users": %t}`, extremelyHeavy, lazy)),
		},
		Sweep: []Axis{{Name: "users", Values: []float64{32, 64, 128}, Bind: BindUsers}},
		Seed:  Salt{From: SaltUsers, Mul: 29, Add: 7},
		Output: Output{
			Kind: KindCurve, Title: "lazy determinism",
			X: MetricUsers, XLabel: "users", YLabel: "µs/byte", Y: MetricRPB,
			Columns: []Column{
				{Header: "users", Metric: MetricUsers, Format: FormatInt},
				{Header: "ops", Metric: MetricOps, Format: FormatInt},
				{Header: "µs/byte", Metric: MetricRPB, Format: FormatF},
			},
		},
	}
}

// TestLazyScenarioMatchesEagerAcrossParallelism is the PR's byte-identity
// bar at the scenario layer: the lazy_users knob must not move a single
// rendered byte relative to the eager default, at any sweep parallelism.
func TestLazyScenarioMatchesEagerAcrossParallelism(t *testing.T) {
	run := func(sc *Scenario, par int) string {
		res, err := Run(context.Background(), sc, Options{Parallelism: par, Scale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	eager := run(lazyDetScenario("lazy-det-eager", false), 1)
	if eager == "" {
		t.Fatal("empty render")
	}
	for _, par := range []int{1, 4, 8} {
		if got := run(lazyDetScenario("lazy-det-lazy", true), par); got != eager {
			t.Errorf("lazy render at parallel %d diverges from eager:\n%s\nvs\n%s", par, got, eager)
		}
	}
}

// TestLazyScenarioMaterializesSubset checks the knob actually engages at the
// scenario layer: with sparse sessions over an arrival window, the
// materialized-users column must come in below the registered population
// (otherwise the 100k rows of scale5.3 would be eager in disguise).
func TestLazyScenarioMaterializesSubset(t *testing.T) {
	sc := &Scenario{
		Name: "lazy-subset-test",
		Base: Workload{
			Sessions: 40,
			// scale5.3's population: zero-think-time users whose
			// workstations boot across a shared 30-second arrival window.
			Spec: json.RawMessage(`{
				"users": 256,
				"user_types": [{"name": "extremely-heavy", "think_time": {"kind": "constant"}, "fraction": 1,
					"lifecycle": {"arrive": {"kind": "uniform", "hi": 30e6}}}],
				"system_files": 30, "files_per_user": 4,
				"fs": {"topology": {"servers": 2, "client_pool": 4}},
				"lazy_users": true}`),
		},
		Seed: Salt{From: SaltIndex, Mul: 29, Add: 11},
		Output: Output{Kind: KindTable, Title: "lazy subset", Columns: []Column{
			{Header: "users", Metric: MetricUsers, Format: FormatInt},
			{Header: "materialized", Metric: "fsc.users_built", Format: FormatInt},
		}},
	}
	res, err := Run(context.Background(), sc, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := res.(Tabular)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	_, _, rows := tab.Table()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	users, materialized := rows[0][0], rows[0][1]
	if users != "256" {
		t.Fatalf("users column = %q, want 256", users)
	}
	if materialized == "0" || materialized == users {
		t.Errorf("materialized = %s of %s users; want a nonzero strict subset", materialized, users)
	}
	if strings.TrimSpace(materialized) == "" {
		t.Error("materialized column empty")
	}
}
