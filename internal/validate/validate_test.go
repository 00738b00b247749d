package validate

import (
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/trace"
	"uswg/internal/usim"
	"uswg/internal/vfs"
)

// runWorkload executes sessions on a cost-free MemFS and returns the log.
func runWorkload(t *testing.T, mutate func(*config.Spec), sessions int) (*config.Spec, *trace.Log) {
	t.Helper()
	spec := config.Default()
	spec.Users = 1
	spec.Sessions = sessions
	spec.SystemFiles = 50
	spec.FilesPerUser = 40
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	if mutate != nil {
		mutate(spec)
	}
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	fsys := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	inv, err := fsc.Build(&vfs.ManualClock{}, fsys, spec, tables, rng.New(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := usim.New(spec, tables, inv, fsys, &trace.Log{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &vfs.ManualClock{}
	types := s.AssignTypes()
	r := rng.Derive(spec.Seed, "user0.0")
	for i := 0; i < sessions; i++ {
		if err := s.RunSession(ctx, i, 0, types[0], r); err != nil {
			t.Fatal(err)
		}
	}
	return spec, s.Log()
}

func TestThinkTimeSimilarityOnCostFreeFS(t *testing.T) {
	spec, log := runWorkload(t, nil, 40)
	rep, err := Workload(spec, log)
	if err != nil {
		t.Fatal(err)
	}
	var think *Check
	for i := range rep.Checks {
		if rep.Checks[i].Name == "think time vs spec" {
			think = &rep.Checks[i]
		}
	}
	if think == nil {
		t.Fatal("missing think-time check")
	}
	if think.N < 100 {
		t.Fatalf("too few gaps: %d", think.N)
	}
	// On a cost-free file system the inter-op gap IS the think sample, so
	// the KS test against exp(5000) must accept.
	if !think.Passed(0.001) {
		t.Errorf("think time check rejected: %+v", *think)
	}
}

func TestCategoryMixSimilarity(t *testing.T) {
	spec, log := runWorkload(t, nil, 120)
	rep, err := Workload(spec, log)
	if err != nil {
		t.Fatal(err)
	}
	var mix *Check
	for i := range rep.Checks {
		if rep.Checks[i].Test == "chi2" {
			mix = &rep.Checks[i]
		}
	}
	if mix == nil {
		t.Fatal("missing chi2 check")
	}
	if !mix.Passed(0.001) {
		t.Errorf("category mix rejected: %+v", *mix)
	}
}

func TestAccessSizeCheckAnnotatesClipping(t *testing.T) {
	spec, log := runWorkload(t, nil, 20)
	rep, err := Workload(spec, log)
	if err != nil {
		t.Fatal(err)
	}
	var acc *Check
	for i := range rep.Checks {
		if rep.Checks[i].Name == "access size vs spec" {
			acc = &rep.Checks[i]
		}
	}
	if acc == nil {
		t.Fatal("missing access-size check")
	}
	if acc.N == 0 {
		t.Error("no access sizes collected")
	}
	if !strings.Contains(acc.Note, "clipped") {
		t.Error("access-size check should note clipping")
	}
}

func TestDetectsWrongThinkTime(t *testing.T) {
	// Generate with think exp(20000) but validate against a spec claiming
	// exp(5000): the KS test must reject.
	spec, log := runWorkload(t, func(sp *config.Spec) {
		sp.UserTypes = []config.UserType{{Name: config.UserHeavy, ThinkTime: config.Exp(20000), Fraction: 1}}
	}, 40)
	lie := *spec
	lie.UserTypes = []config.UserType{{Name: config.UserHeavy, ThinkTime: config.Exp(5000), Fraction: 1}}
	rep, err := Workload(&lie, log)
	if err != nil {
		t.Fatal(err)
	}
	var think *Check
	for i := range rep.Checks {
		if rep.Checks[i].Name == "think time vs spec" {
			think = &rep.Checks[i]
		}
	}
	if think == nil || think.N < 100 {
		t.Fatal("missing think data")
	}
	if think.Passed(0.001) {
		t.Errorf("KS failed to reject a 4x think-time lie: %+v", *think)
	}
	if len(rep.Failed(0.001)) != 0 {
		t.Error("advisory checks must not appear in Failed")
	}
}

func TestMultiTypeSkipsThinkCheck(t *testing.T) {
	spec, log := runWorkload(t, func(sp *config.Spec) {
		sp.UserTypes = config.Population(0.5)
	}, 12)
	rep, err := Workload(spec, log)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if c.Name == "think time vs spec" && !strings.Contains(c.Note, "skipped") {
			t.Errorf("multi-type think check should be skipped: %+v", c)
		}
	}
}

func TestReportString(t *testing.T) {
	spec, log := runWorkload(t, nil, 12)
	rep, err := Workload(spec, log)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"access size", "think time", "category mix"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadRejectsInvalidSpec(t *testing.T) {
	spec := config.Default()
	spec.Users = 0
	if _, err := Workload(spec, &trace.Log{}); err == nil {
		t.Error("invalid spec should fail")
	}
}
