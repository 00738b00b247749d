// Churn scenario: a dynamic population composed as data. Every machine in
// this 4-user population crashes with exponential MTTF (losing its caches
// and the session in flight), repairs for a constant MTTR, and rejoins
// cold; the transient output renders the run minute by minute instead of
// as one steady-state mean, plus churn summary lines. Lifecycle knobs are
// part of each user type in the workload's spec patch (JSON over the
// default spec), so the same Scenario literal serializes to a file for
// `wlgen scenario run -file` (add -json/-csv for the machine view).
//
//	go run ./examples/churn-scenario
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
		Name: "churny-office",
		Base: scenario.Workload{
			Sessions: 40, SessionsPerUser: true,
			// Crash ~20 s, repair 2 s; 10 s windows.
			Spec: json.RawMessage(`{
				"users": 4,
				"user_types": [{
					"name": "extremely-heavy", "think_time": {"kind": "constant"}, "fraction": 1,
					"lifecycle": {
						"mttf": {"kind": "exponential", "mean": 20e6},
						"mttr": {"kind": "constant", "value": 2e6}
					}
				}],
				"system_files": 120, "files_per_user": 60,
				"trace": {"window_us": 10e6}
			}`),
		},
		Output: scenario.Output{
			Kind:  scenario.KindTransient,
			Title: "A crashing office: 4 workstations, MTTF 20 s, MTTR 2 s",
		},
	}

	res, err := scenario.Run(context.Background(), sc, scenario.Options{Scale: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
}
