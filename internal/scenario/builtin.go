package scenario

// The built-in scenarios: every table and figure of the thesis's Chapter 5
// evaluation, the fault5.x resilience family, and the scale5.x extension.
// Each is one JSON file in builtin/, embedded in the binary and decoded at
// init by the same strict Decode that `wlgen scenario run -file` uses, so a
// built-in is exactly a file a user could have written. The artifact golden
// folder's scenarios/ entry is a symlink to builtin/: TestGolden checks that
// every registered scenario still dumps to its own file.

import (
	"embed"
	"fmt"
)

//go:embed builtin/*.json
var builtinFiles embed.FS

// builtinOrder is the evaluation order of the built-ins: `wlgen scenario
// list` and `wlgen paper` follow it. Every file in builtin/ has one entry.
var builtinOrder = []string{
	"table5.1", "table5.2", "table5.3", "table5.4",
	"fig5.1", "fig5.2", "fig5.3",
	"fig5.6", "fig5.7", "fig5.8", "fig5.9", "fig5.10", "fig5.11", "fig5.12",
	"fault5.1", "fault5.2", "fault5.3", "fault5.4",
	"fault5.5", "fault5.6", "fault5.7", "fault5.8",
	"scale5.1",
	"scale5.2x1", "scale5.2x2", "scale5.2x4", "scale5.2x8", "scale5.2pool",
	"scale5.3", "scale5.3curve",
}

// registry maps each built-in's name and each of its aliases to it. init
// fills it and nothing writes it afterwards, so lookups take no lock.
// Registered scenarios are immutable: the engine copies what it mutates per
// point.
var registry = map[string]*Scenario{}

func init() {
	for _, name := range builtinOrder {
		path := "builtin/" + name + ".json"
		if err := registerFile(path, name); err != nil {
			panic(fmt.Sprintf("scenario: built-in %s: %v", path, err))
		}
	}
}

// registerFile decodes one embedded built-in and registers it; the name
// inside the file must match the file's own.
func registerFile(path, name string) error {
	f, err := builtinFiles.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := Decode(f)
	if err != nil {
		return err
	}
	if sc.Name != name {
		return fmt.Errorf("%w: file declares name %q", ErrScenario, sc.Name)
	}
	return register(sc)
}

// register adds a scenario under its name and aliases, rejecting a name or
// alias that another scenario already registered as either.
func register(sc *Scenario) error {
	keys := append([]string{sc.Name}, sc.Aliases...)
	for _, k := range keys {
		if _, dup := registry[k]; dup {
			return fmt.Errorf("%w: %q is already a scenario name or alias", ErrScenario, k)
		}
	}
	for _, k := range keys {
		registry[k] = sc
	}
	return nil
}

// Lookup resolves a name or alias to its built-in scenario.
func Lookup(name string) (*Scenario, bool) {
	sc, ok := registry[name]
	return sc, ok
}

// Names lists the built-in scenario names in evaluation order.
func Names() []string {
	return append([]string(nil), builtinOrder...)
}
