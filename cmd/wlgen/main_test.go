package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/core"
)

// TestPrintSummaryReportsEveryIsland: on a two-island fleet the summary
// prints one server line per island, and their RPC counts add up to the
// whole fleet's, not island 0's alone.
func TestPrintSummaryReportsEveryIsland(t *testing.T) {
	spec := config.Default()
	spec.Users, spec.Sessions = 4, 40
	spec.FS.Topology = &config.Topology{Servers: 2}
	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, srv := range gen.Servers() {
		want += srv.Calls()
	}
	var out bytes.Buffer
	printSummary(&out, spec, res, gen)

	var got int64
	islands := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "nfs server") {
			continue
		}
		var island int
		var calls int64
		if _, err := fmt.Sscanf(line, "nfs server %d: %d RPCs", &island, &calls); err != nil {
			t.Fatalf("server line %q: %v", line, err)
		}
		if island != islands {
			t.Errorf("server line %q out of island order", line)
		}
		got += calls
		islands++
	}
	if islands != 2 {
		t.Errorf("%d server lines, want 2:\n%s", islands, out.String())
	}
	if got != want || gen.Servers()[1].Calls() == 0 {
		t.Errorf("server lines sum to %d RPCs, the fleet served %d (island 1: %d)", got, want, gen.Servers()[1].Calls())
	}
}
