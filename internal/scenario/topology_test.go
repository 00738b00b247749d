package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"uswg/internal/core"
)

// TestFleetScenarioDeterministicAcrossParallelism is the scale-out
// acceptance bar: a sweep over a pooled multi-island fleet renders
// byte-identically at any parallelism.
func TestFleetScenarioDeterministicAcrossParallelism(t *testing.T) {
	sc := &Scenario{
		Name: "fleet-det-test",
		Base: Workload{
			SessionsFromUsers: true,
			Spec: json.RawMessage(`{
				"user_types": ` + extremelyHeavy + `,
				"system_files": 30, "files_per_user": 6,
				"fs": {"topology": {"servers": 4, "client_pool": 4}}}`),
		},
		Sweep: []Axis{{Name: "users", Values: []float64{8, 16, 32}, Bind: BindUsers}},
		Seed:  Salt{From: SaltUsers, Mul: 31, Add: 2},
		Output: Output{
			Kind: KindCurve, Title: "fleet determinism",
			X: MetricUsers, XLabel: "users", YLabel: "µs/byte", Y: MetricRPB,
			Columns: []Column{
				{Header: "users", Metric: MetricUsers, Format: FormatInt},
				{Header: "µs/byte", Metric: MetricRPB, Format: FormatF},
				{Header: "nfsd util", Metric: "nfs.nfsd_util", Format: FormatPct1},
			},
		},
	}
	run := func(par int) string {
		res, err := Run(context.Background(), sc, Options{Parallelism: par, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	seq := run(1)
	if seq == "" {
		t.Fatal("empty render")
	}
	for _, par := range []int{4, 8} {
		if got := run(par); got != seq {
			t.Errorf("parallel %d output diverges from sequential:\n%s\nvs\n%s", par, got, seq)
		}
	}
}

// TestSweepServersBind checks the servers axis: each point runs at its own
// island count, and the axis value feeds the point's primary value.
func TestSweepServersBind(t *testing.T) {
	sc := &Scenario{
		Name: "sweep-servers-test",
		Base: Workload{
			Sessions: 8,
			Spec: json.RawMessage(`{
				"users": 8,
				"user_types": ` + extremelyHeavy + `,
				"system_files": 30, "files_per_user": 6,
				"fs": {"topology": {"client_pool": 4}}}`),
		},
		Sweep: []Axis{{Name: "servers", Values: []float64{1, 2, 4}, Bind: "/fs/topology/servers"}},
		Seed:  Salt{From: SaltValue, Mul: 3, Add: 1},
		Output: Output{Kind: KindTable, Title: "servers sweep", Columns: []Column{
			{Header: "servers", Metric: MetricValue, Format: FormatInt},
			{Header: "µs/byte", Metric: MetricRPB, Format: FormatF},
		}},
	}
	res, err := Run(context.Background(), sc, Options{Parallelism: 2, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := res.(Tabular)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	_, _, rows := tab.Table()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, want := range []string{"1", "2", "4"} {
		if rows[i][0] != want {
			t.Errorf("row %d servers = %q, want %q", i, rows[i][0], want)
		}
	}
}

// TestTopologyWorkloadValidation covers the topology checks a scenario's
// compiled specs get and the integer requirement of the topology binds.
func TestTopologyWorkloadValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name: "topo-val",
			Base: Workload{Sessions: 4, Spec: json.RawMessage(`{"users": 2}`)},
			Output: Output{Kind: KindTable, Title: "t",
				Columns: []Column{{Header: "ops", Metric: MetricOps, Format: FormatInt}}},
		}
	}
	t.Run("valid topology", func(t *testing.T) {
		sc := base()
		sc.Base.Spec = json.RawMessage(`{"users": 2, "fs": {"topology": {"servers": 2, "client_pool": 4}}}`)
		if err := sc.Validate(); err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	})
	t.Run("invalid topology", func(t *testing.T) {
		sc := base()
		sc.Base.Spec = json.RawMessage(`{"users": 2, "fs": {"topology": {"placement": "scatter"}}}`)
		if err := sc.Validate(); err == nil {
			t.Error("expected placement rejection")
		}
	})
	t.Run("fractional servers axis", func(t *testing.T) {
		sc := base()
		sc.Sweep = []Axis{{Name: "servers", Values: []float64{1.5}, Bind: "/fs/topology/servers"}}
		if err := sc.Validate(); err == nil {
			t.Error("expected integer-axis rejection")
		}
	})
	// A pool of 0 is config.Topology's private clients; a negative or
	// fractional pool has no meaning.
	t.Run("zero pool axis", func(t *testing.T) {
		pool := func(v float64) error {
			sc := base()
			sc.Sweep = []Axis{{Name: "pool", Values: []float64{v}, Bind: "/fs/topology/client_pool"}}
			return sc.Validate()
		}
		if err := pool(0); err != nil {
			t.Errorf("pool 0 rejected: %v", err)
		}
		for _, v := range []float64{-1, 1.5} {
			if pool(v) == nil {
				t.Errorf("pool %v accepted", v)
			}
		}
	})
}

// TestTransientFleetSumsLinks pins the transient view's network line on a
// fleet: drops, retransmits, give-ups and blocked time are sums over every
// island's link, not island 0's alone.
func TestTransientFleetSumsLinks(t *testing.T) {
	sc := &Scenario{
		Name: "transient-fleet-test",
		Base: Workload{
			Sessions: 10, SessionsPerUser: true,
			Spec: json.RawMessage(`{
				"users": 4,
				"user_types": ` + extremelyHeavy + `,
				"system_files": 30, "files_per_user": 6,
				"fs": {"topology": {"servers": 2, "client_pool": 2}},
				"trace": {"window_us": 5e6},
				"fault": {"name": "lossy-fleet", "rules": [{"name": "drop", "ops": ["net"], "prob": 0.01, "drop": true}],
				          "net_timeout_us": 100000}}`),
		},
		Output: Output{Kind: KindTransient, Title: "transient fleet"},
	}
	opts := Options{Parallelism: 1}
	res, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := res.(*TransientResult)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	var got string
	for _, l := range tr.Summary {
		if strings.HasPrefix(l, "network:") {
			got = l
		}
	}

	// The same point, rebuilt and run again, exposes its links.
	ps, err := sc.compilePoint(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(ps.spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(); err != nil {
		t.Fatal(err)
	}
	links := gen.Links()
	if len(links) != 2 {
		t.Fatalf("links = %d, want 2", len(links))
	}
	var drops, retransmits, giveUps int64
	var blocked float64
	for i, l := range links {
		if l.Drops() == 0 {
			t.Errorf("island %d dropped nothing; the sum check is vacuous", i)
		}
		drops += l.Drops()
		retransmits += l.Retransmits()
		giveUps += l.GiveUps()
		blocked += l.BlockedTime()
	}
	want := fmt.Sprintf("network: %d drops, %d retransmits, %d give-ups, %.1f s blocked in retry holds",
		drops, retransmits, giveUps, blocked/1e6)
	if got != want {
		t.Errorf("summary network line:\n got %q\nwant %q", got, want)
	}
}
