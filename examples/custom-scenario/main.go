// Custom scenario: a degraded-network 500-user sweep composed as data, no
// experiment driver. One Scenario literal describes the whole experiment —
// population, sweep axis, a correlated burst-loss wire (Gilbert-Elliott
// good/bad episodes), output contract — and the scenario engine runs it
// with per-point seeds, byte-identical at any parallelism. A column may
// name any counter of the run's snapshot (core.MetricNames), as drops do.
// The workload, the wire's fault plan included, is a JSON merge patch over
// the default spec, and the axis binds by JSON pointer into it, so any
// spec knob sweeps the same way (/fault/rules/0/burst/p_enter would sweep
// the burst rate). The fields are the JSON schema: `sc.Encode(os.Stdout)`
// would print the same scenario as a file for `wlgen scenario run -file`,
// and the built-ins are such files (`wlgen scenario dump -name fig5.6`).
//
//	go run ./examples/custom-scenario
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"uswg/internal/scenario"
)

func main() {
	sc := &scenario.Scenario{
		Name: "degraded-500",
		Base: scenario.Workload{
			SessionsFromUsers: true, // one login session per user at full scale
			Spec: json.RawMessage(`{
				"user_types": [{"name": "extremely-heavy", "think_time": {"kind": "constant"}, "fraction": 1}],
				"system_files": 60, "files_per_user": 12,
				"fault": {
					"name": "bursty-wire",
					"rules": [{"name": "burst", "ops": ["net"], "drop": true,
					           "burst": {"p_enter": 0.0005, "p_exit": 0.05}}],
					"net_timeout_us": 50000, "net_retries": 3
				}
			}`),
		},
		Sweep: []scenario.Axis{{Name: "users", Values: []float64{100, 200, 300, 400, 500}, Bind: scenario.BindUsers}},
		Seed:  scenario.Salt{From: scenario.SaltUsers, Mul: 11, Add: 3},
		Output: scenario.Output{
			Kind:  scenario.KindCurve,
			Title: "Response per byte, 100-500 users on a bursty wire",
			X:     scenario.MetricUsers, XLabel: "users",
			Y: scenario.MetricRPB, YLabel: "µs/byte",
			Columns: []scenario.Column{
				{Header: "users", Metric: scenario.MetricUsers, Format: scenario.FormatInt},
				{Header: "drops", Metric: "netsim.drops", Format: scenario.FormatInt},
				{Header: "retransmits", Metric: "netsim.retransmits", Format: scenario.FormatInt},
				{Header: "µs/byte", Metric: scenario.MetricRPB, Format: scenario.FormatF},
			},
		},
	}

	res, err := scenario.Run(context.Background(), sc, scenario.Options{Scale: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
}
