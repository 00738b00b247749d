package usim

import (
	"runtime"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// lifecycleSim builds a DES-backed simulator whose two-user population
// carries the given lifecycle (nil for a static control population).
func lifecycleSim(t *testing.T, sessions int, lc *config.Lifecycle, sink trace.Sink) (*Simulator, *sim.Env) {
	t.Helper()
	spec := config.Default()
	spec.Users = 2
	spec.Sessions = sessions
	spec.SystemFiles = 30
	spec.FilesPerUser = 20
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	spec.Seed = 20260808
	spec.UserTypes = []config.UserType{{
		Name: config.UserExtremelyHeavy, ThinkTime: config.Const(1000), Fraction: 1,
		Lifecycle: lc,
	}}
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	fsys := vfs.NewLocalCost(env, vfs.DefaultLocalCostConfig(), vfs.NewMemFS(vfs.WithMaxFDs(1<<20)))
	inv, err := fsc.Build(&vfs.ManualClock{}, fsys, spec, tables, rng.New(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(spec, tables, inv, fsys, sink)
	if err != nil {
		t.Fatal(err)
	}
	return s, env
}

// crashyLifecycle returns a lifecycle that crashes often and repairs fast.
func crashyLifecycle() *config.Lifecycle {
	mttf, mttr := config.Exp(2e5), config.Const(1e4)
	return &config.Lifecycle{MTTF: &mttf, MTTR: &mttr}
}

// TestLifecycleChurnCounters: a crashing population still starts its full
// session share (ids stay contiguous), and every crash is matched by a
// truncated session and (absent departures) a reboot.
func TestLifecycleChurnCounters(t *testing.T) {
	s, env := lifecycleSim(t, 40, crashyLifecycle(), &trace.Log{})
	n, err := s.RunUnderSim(env)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Errorf("sessions started = %d, want 40", n)
	}
	c := s.Churn()
	if c.Crashes == 0 {
		t.Fatal("no crashes; lifecycle churn check is vacuous")
	}
	if c.TruncatedSessions != c.Crashes {
		t.Errorf("truncated sessions = %d, crashes = %d; must match", c.TruncatedSessions, c.Crashes)
	}
	if c.Reboots != c.Crashes {
		t.Errorf("reboots = %d, crashes = %d; without departures every crash reboots", c.Reboots, c.Crashes)
	}
	if c.Departed != 0 {
		t.Errorf("departed = %d, want 0", c.Departed)
	}
	// The trace still carries every started session id exactly once per
	// stream: truncated sessions emit fewer records, never duplicate ids.
	seen := make(map[int]bool)
	s.Log().Each(func(rec *trace.Record) { seen[rec.Session] = true })
	for id := range seen {
		if id < 0 || id >= 40 {
			t.Errorf("session id %d outside the started range", id)
		}
	}
}

// TestLifecycleDeparture: a departure deadline inside the run stops the
// stream early — fewer sessions start, and the user counts as departed.
func TestLifecycleDeparture(t *testing.T) {
	depart := config.Const(5e5)
	s, env := lifecycleSim(t, 400, &config.Lifecycle{Depart: &depart}, &trace.Log{})
	n, err := s.RunUnderSim(env)
	if err != nil {
		t.Fatal(err)
	}
	if n >= 400 {
		t.Errorf("started %d of 400 sessions; departure at 0.5 s should have cut the streams short", n)
	}
	c := s.Churn()
	if c.Departed != 2 {
		t.Errorf("departed = %d, want both users", c.Departed)
	}
	if c.Crashes != 0 || c.Reboots != 0 {
		t.Errorf("departure-only lifecycle crashed: %+v", c)
	}
}

// TestLifecycleCrashBoundsHeap is the kill/reboot analogue of
// TestSummarizerRetirementBoundsHeap: hundreds of crash/reboot cycles must
// not leak sessions or work items — the arena reclaims a truncated session
// exactly like a finished one, so a churning run's heap growth stays in the
// same band as a static run of the same session count, not proportional to
// the crash count.
func TestLifecycleCrashBoundsHeap(t *testing.T) {
	const sessions = 300
	grow := func(s *Simulator, env *sim.Env) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := s.RunUnderSim(env); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}

	staticSim, staticEnv := lifecycleSim(t, sessions, nil, trace.NewSummarizer())
	churnSim, churnEnv := lifecycleSim(t, sessions, crashyLifecycle(), trace.NewSummarizer())
	staticGrowth := grow(staticSim, staticEnv)
	churnGrowth := grow(churnSim, churnEnv)

	crashes := churnSim.Churn().Crashes
	if crashes < 20 {
		t.Fatalf("only %d crashes; heap bound check needs a churning run", crashes)
	}
	// Generous bound: churn may allocate somewhat more (lifecycle holds,
	// truncated-session bookkeeping), but a per-crash leak of sessions or
	// work items would blow far past 3x + slack.
	slack := uint64(256 << 10)
	if churnGrowth > 3*staticGrowth+slack {
		t.Errorf("churning heap growth %d B exceeds 3x static growth %d B + slack (crashes=%d)",
			churnGrowth, staticGrowth, crashes)
	}
}
