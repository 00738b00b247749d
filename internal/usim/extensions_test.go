package usim

import (
	"math"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

func gdsBuild(spec *config.Spec) (*gds.TableSet, error) {
	return gds.BuildTables(spec)
}

func fscBuild(fsys vfs.FileSystem, spec *config.Spec, tables *gds.TableSet) (*fsc.Inventory, error) {
	return fsc.Build(&vfs.ManualClock{}, fsys, spec, tables, rng.New(spec.Seed))
}

// singleRdOnlySpec mutates a spec down to one read-only category so op
// streams are easy to reason about.
func singleRdOnlySpec(access string) func(*config.Spec) {
	return func(sp *config.Spec) {
		sp.Categories = []config.Category{{
			FileType:      config.FileReg,
			Owner:         config.OwnerUser,
			Use:           config.UseRdOnly,
			FileSize:      config.Const(50000),
			PercentFiles:  100,
			AccessPerByte: config.Const(1),
			FilesAccessed: config.Const(4),
			PercentUsers:  100,
			Access:        access,
		}}
	}
}

// consecutiveSameFile measures how often consecutive data ops hit the same
// path.
func consecutiveSameFile(recs []trace.Record) float64 {
	var same, total int
	var prev string
	for _, r := range recs {
		if !r.Op.IsData() {
			continue
		}
		if prev != "" {
			total++
			if r.Path == prev {
				same++
			}
		}
		prev = r.Path
	}
	if total == 0 {
		return 0
	}
	return float64(same) / float64(total)
}

func TestLocalityIncreasesRunLengths(t *testing.T) {
	run := func(locality float64) float64 {
		s, _ := harness(t, func(sp *config.Spec) {
			singleRdOnlySpec("")(sp)
			sp.Ext.Locality = locality
		})
		ctx := &vfs.ManualClock{}
		for i := 0; i < 10; i++ {
			if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		return consecutiveSameFile(s.Log().Records())
	}
	independent := run(0)
	markov := run(0.9)
	if markov <= independent {
		t.Errorf("locality 0.9 same-file rate %v should exceed independent %v", markov, independent)
	}
	if markov < 0.6 {
		t.Errorf("locality 0.9 same-file rate %v suspiciously low", markov)
	}
}

func TestRandomAccessSeeksEverywhere(t *testing.T) {
	s, _ := harness(t, singleRdOnlySpec(config.AccessRandom))
	ctx := &vfs.ManualClock{}
	if err := s.RunSession(ctx, 0, 0, config.UserHeavy, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	var seeks, reads int
	for _, r := range s.Log().Records() {
		switch r.Op {
		case trace.OpSeek:
			seeks++
		case trace.OpRead:
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("no reads")
	}
	// Random access interleaves a seek with (almost) every read.
	if float64(seeks) < 0.8*float64(reads) {
		t.Errorf("seeks %d, reads %d: random access should seek before reads", seeks, reads)
	}
}

func TestSequentialAccessSeeksRarely(t *testing.T) {
	s, _ := harness(t, singleRdOnlySpec(""))
	ctx := &vfs.ManualClock{}
	if err := s.RunSession(ctx, 0, 0, config.UserHeavy, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	var seeks, reads int
	for _, r := range s.Log().Records() {
		switch r.Op {
		case trace.OpSeek:
			seeks++
		case trace.OpRead:
			reads++
		}
	}
	// Sequential access with access-per-byte 1 never rewinds.
	if seeks != 0 {
		t.Errorf("sequential single-pass session issued %d seeks", seeks)
	}
	if reads == 0 {
		t.Fatal("no reads")
	}
}

func TestThinkFactorAt(t *testing.T) {
	e := config.Extensions{ThinkFactors: []float64{1, 2, 4}, ThinkPeriod: 300}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 1}, {99, 1}, {100, 2}, {250, 4}, {300, 1}, {399, 1}, {400, 2},
	}
	for _, c := range cases {
		if got := e.ThinkFactorAt(c.t); got != c.want {
			t.Errorf("factor at %v = %v, want %v", c.t, got, c.want)
		}
	}
	var off config.Extensions
	if off.ThinkFactorAt(123) != 1 {
		t.Error("disabled extension must return factor 1")
	}
}

func TestTimeOfDayScalesThinkTime(t *testing.T) {
	runtime := func(factors []float64) float64 {
		s, _ := harness(t, func(sp *config.Spec) {
			singleRdOnlySpec("")(sp)
			sp.Ext.ThinkFactors = factors
			sp.Ext.ThinkPeriod = 1e12 // one phase covers the whole run
		})
		ctx := &vfs.ManualClock{}
		if err := s.RunSession(ctx, 0, 0, config.UserHeavy, rng.New(7)); err != nil {
			t.Fatal(err)
		}
		return ctx.Now()
	}
	slow := runtime([]float64{3})
	fast := runtime([]float64{1})
	if slow < fast*2 {
		t.Errorf("3x think factor: %v not ~3x of %v", slow, fast)
	}
}

func TestConcurrentSessionsOverlapInTime(t *testing.T) {
	build := func(conc int) (*Simulator, *sim.Env) {
		spec := config.Default()
		spec.Users = 1
		spec.Sessions = 6
		spec.SystemFiles = 30
		spec.FilesPerUser = 20
		spec.FS = config.FSSpec{Kind: config.FSLocal}
		spec.Ext.ConcurrentSessions = conc
		s, env := harnessUnderSim(t, spec)
		return s, env
	}
	s, env := build(3)
	n, err := s.RunUnderSim(env)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("sessions = %d", n)
	}
	// With three streams, ops from different sessions interleave in time:
	// find two sessions whose [first, last] op windows overlap.
	type window struct{ lo, hi float64 }
	windows := make(map[int]*window)
	for _, r := range s.Log().Records() {
		w, ok := windows[r.Session]
		if !ok {
			windows[r.Session] = &window{lo: r.Start, hi: r.Start}
			continue
		}
		if r.Start < w.lo {
			w.lo = r.Start
		}
		if r.Start > w.hi {
			w.hi = r.Start
		}
	}
	overlap := false
	for a, wa := range windows {
		for b, wb := range windows {
			if a < b && wa.lo < wb.hi && wb.lo < wa.hi {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Error("concurrent sessions never overlapped in virtual time")
	}
}

// harnessUnderSim builds a simulator whose file system charges virtual time
// on the given spec.
func harnessUnderSim(t *testing.T, spec *config.Spec) (*Simulator, *sim.Env) {
	t.Helper()
	tables, err := gdsBuild(spec)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	fsys := vfs.NewLocalCost(env, vfs.DefaultLocalCostConfig(), vfs.NewMemFS(vfs.WithMaxFDs(1<<20)))
	inv, err := fscBuild(fsys, spec, tables)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(spec, tables, inv, fsys, &trace.Log{})
	if err != nil {
		t.Fatal(err)
	}
	return s, env
}

func TestExtensionsValidation(t *testing.T) {
	cases := []struct {
		name string
		ext  config.Extensions
		ok   bool
	}{
		{"zero", config.Extensions{}, true},
		{"locality ok", config.Extensions{Locality: 0.5}, true},
		{"locality one", config.Extensions{Locality: 1}, false},
		{"locality negative", config.Extensions{Locality: -0.1}, false},
		{"locality nan", config.Extensions{Locality: math.NaN()}, false},
		{"factors without period", config.Extensions{ThinkFactors: []float64{1}}, false},
		{"factors ok", config.Extensions{ThinkFactors: []float64{1, 2}, ThinkPeriod: 100}, true},
		{"negative factor", config.Extensions{ThinkFactors: []float64{-1}, ThinkPeriod: 100}, false},
		{"negative concurrency", config.Extensions{ConcurrentSessions: -1}, false},
		{"concurrency ok", config.Extensions{ConcurrentSessions: 4}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.ext.Validate()
			if c.ok && err != nil {
				t.Errorf("unexpected: %v", err)
			}
			if !c.ok && err == nil {
				t.Error("expected error")
			}
		})
	}
}
