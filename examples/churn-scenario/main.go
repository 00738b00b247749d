// Churn scenario: a dynamic population composed as data. Every machine in
// this 4-user population crashes with exponential MTTF (losing its caches
// and the session in flight), repairs for a constant MTTR, and rejoins
// cold; the transient output renders the run minute by minute instead of
// as one steady-state mean, plus churn summary lines. Lifecycle knobs are
// part of each user type, so the same Scenario literal serializes to JSON
// for `wlgen scenario run -file` (add -json/-csv for the machine view).
//
//	go run ./examples/churn-scenario
package main

import (
	"context"
	"fmt"
	"log"

	"uswg/internal/config"
	"uswg/internal/scenario"
)

func main() {
	pop := config.ExtremelyHeavyPopulation()
	mttf, mttr := config.Exp(20e6), config.Const(2e6) // crash ~20 s, repair 2 s
	pop[0].Lifecycle = &config.Lifecycle{MTTF: &mttf, MTTR: &mttr}

	sc := &scenario.Scenario{
		Name: "churny-office",
		Base: scenario.Workload{
			Users: 4, Sessions: 40, SessionsPerUser: true,
			SystemFiles: 120, FilesPerUser: 60,
			UserTypes:     pop,
			Trace:         config.TraceStream,
			TraceWindowUS: 10e6, // 10 s windows
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
