package main

// The scenario subcommand is wlgen's front end to the declarative
// experiment API (package scenario):
//
//	wlgen scenario list                          registered scenario names
//	wlgen scenario dump -name fig5.6 [-o f.json] export a built-in as JSON
//	wlgen scenario run  -name fig5.6             run a registered scenario
//	wlgen scenario run  -file my.json            run a JSON scenario file
//
// run accepts -scale/-seed/-parallel like `wlgen paper`; output is
// byte-identical at any -parallel setting. -json/-csv swap the rendered
// text for the result's table (scenario.Tabular) in machine form. dump → edit → run is the
// no-compile workflow for new workloads: every knob of the built-ins —
// population and think times, sweep axes, fault plans (burst loss
// included), windows, output contract — is data in the dumped JSON.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"uswg/internal/artifact"
	"uswg/internal/scenario"
)

func cmdScenario(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("scenario: usage: wlgen scenario {list|dump|run} [flags]")
	}
	switch args[0] {
	case "list":
		for _, name := range scenario.Names() {
			fmt.Println(name)
		}
		return nil
	case "dump":
		return cmdScenarioDump(args[1:])
	case "run":
		return cmdScenarioRun(args[1:])
	default:
		return fmt.Errorf("scenario: unknown subcommand %q (try list, dump, or run)", args[0])
	}
}

func cmdScenarioDump(args []string) error {
	fs := flag.NewFlagSet("scenario dump", flag.ExitOnError)
	name := fs.String("name", "", "registered scenario to export")
	out := fs.String("o", "", "output file (default stdout)")
	_ = fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("scenario dump: -name is required (one of %s)", strings.Join(scenario.Names(), ", "))
	}
	sc, ok := scenario.Lookup(strings.ToLower(*name))
	if !ok {
		return fmt.Errorf("scenario dump: unknown scenario %q (one of %s)", *name, strings.Join(scenario.Names(), ", "))
	}
	if *out == "" {
		return sc.Encode(os.Stdout)
	}
	return artifact.WriteFile(*out, sc.Encode)
}

func cmdScenarioRun(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	name := fs.String("name", "", "registered scenario to run")
	file := fs.String("file", "", "scenario JSON file to run")
	scale := fs.Float64("scale", 1, "session-count multiplier")
	seed := fs.Uint64("seed", 0, "override the RNG seed (0 keeps the default)")
	parallel := fs.Int("parallel", 0, "concurrent sweep points (0 = GOMAXPROCS; output identical at any setting)")
	asJSON := fs.Bool("json", false, "emit the result's table as JSON instead of rendering it")
	asCSV := fs.Bool("csv", false, "emit the result's table as CSV instead of rendering it")
	_ = fs.Parse(args)
	if *asJSON && *asCSV {
		return fmt.Errorf("scenario run: -json and -csv are mutually exclusive")
	}

	var sc *scenario.Scenario
	switch {
	case *name != "" && *file != "":
		return fmt.Errorf("scenario run: -name and -file are mutually exclusive")
	case *name != "":
		var ok bool
		sc, ok = scenario.Lookup(strings.ToLower(*name))
		if !ok {
			return fmt.Errorf("scenario run: unknown scenario %q (one of %s)", *name, strings.Join(scenario.Names(), ", "))
		}
	case *file != "":
		var err error
		sc, err = scenario.Load(*file)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("scenario run: one of -name or -file is required")
	}

	opts := scenario.Options{Seed: *seed, Scale: *scale, Parallelism: *parallel}
	res, err := scenario.Run(context.Background(), sc, opts)
	if err != nil {
		return err
	}
	if *asJSON || *asCSV {
		return writeTabular(res, *asJSON)
	}
	fmt.Println(res.Render())
	return nil
}

// writeTabular emits the result's machine view: the scenario.Tabular table
// as JSON ({"title", "headers", "rows"}) or CSV (header row first), the same
// shapes `wlgen paper` files under points/.
func writeTabular(res scenario.Result, asJSON bool) error {
	tab, ok := res.(scenario.Tabular)
	if !ok {
		return fmt.Errorf("scenario run: this output kind renders text only; drop -json/-csv")
	}
	title, headers, rows := tab.Table()
	if asJSON {
		return artifact.WriteTableJSON(os.Stdout, title, headers, rows)
	}
	return artifact.WriteTableCSV(os.Stdout, headers, rows)
}
