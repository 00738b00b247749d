package core

import (
	"reflect"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fault"
	"uswg/internal/trace"
	"uswg/internal/usim"
)

// churnSpec returns a small NFS spec whose whole population crashes and
// reboots: exponential MTTF short enough for several crashes per run,
// constant MTTR, everyone arriving warm at t=0.
func churnSpec() *config.Spec {
	spec := config.Default()
	spec.Users = 2
	spec.Sessions = 30
	spec.SystemFiles = 30
	spec.FilesPerUser = 20
	spec.Seed = 20260808
	mttf, mttr := config.Exp(3e6), config.Const(5e5)
	spec.UserTypes = []config.UserType{{
		Name: config.UserExtremelyHeavy, ThinkTime: config.Const(0), Fraction: 1,
		Lifecycle: &config.Lifecycle{MTTF: &mttf, MTTR: &mttr},
	}}
	return spec
}

// TestChurnStreamingMatchesLogMode extends the whole-stack stream/log
// equivalence to a crashing population: sessions truncated mid-flight by
// the lifecycle engine must fold into the streaming Summarizer exactly as
// their records would have folded into the full log — every session row,
// every ULP of every float reduction. This is the property that makes the
// Summarizer's retirement contract safe under churn: a truncated session's
// id range stays contiguous, so it retires like any finished session. The
// log-mode run's online Analysis must also equal Analyze over its kept
// records.
func TestChurnStreamingMatchesLogMode(t *testing.T) {
	run := func(mode string) (*Result, *Generator) {
		spec := churnSpec()
		spec.Trace.Mode = mode
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gen.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, gen
	}
	logged, lgen := run(config.TraceLog)
	streamed, sgen := run(config.TraceStream)
	if lgen.Churn().TruncatedSessions == 0 {
		t.Fatal("no sessions were truncated; churn equivalence check is vacuous")
	}
	if !reflect.DeepEqual(logged.Analysis, trace.Analyze(lgen.Log())) {
		t.Error("churned online Analysis diverges from Analyze over the kept records")
	}
	if lgen.Churn() != sgen.Churn() {
		t.Errorf("churn stats diverge across trace modes: %+v vs %+v", lgen.Churn(), sgen.Churn())
	}
	if logged.VirtualDuration != streamed.VirtualDuration {
		t.Errorf("virtual durations differ: %v vs %v", logged.VirtualDuration, streamed.VirtualDuration)
	}
	if !reflect.DeepEqual(logged.Analysis, streamed.Analysis) {
		t.Errorf("churned streaming Analysis diverges from log-mode Analysis:\nlog:    %+v\nstream: %+v",
			logged.Analysis, streamed.Analysis)
	}
}

// TestChurnRunIsDeterministic: the lifecycle timeline is a pure function of
// the spec — two runs of the same churn spec agree on every churn counter
// and every float of the Analysis.
func TestChurnRunIsDeterministic(t *testing.T) {
	run := func() (*Result, usim.ChurnStats) {
		gen, err := NewGenerator(churnSpec())
		if err != nil {
			t.Fatal(err)
		}
		res, err := gen.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, gen.Churn()
	}
	a, ca := run()
	b, cb := run()
	if ca != cb {
		t.Errorf("churn stats diverge across identical runs: %+v vs %+v", ca, cb)
	}
	if !reflect.DeepEqual(a.Analysis, b.Analysis) {
		t.Error("analysis diverges across identical runs")
	}
}

// TestColdArrivalSkipsWarming: a user arriving after t=0 must not be
// pre-warmed and must issue nothing before its boot time.
func TestColdArrivalSkipsWarming(t *testing.T) {
	spec := config.Default()
	spec.Users = 2
	spec.Sessions = 8
	spec.SystemFiles = 30
	spec.FilesPerUser = 20
	arrive := config.Const(2e6)
	spec.UserTypes = []config.UserType{{
		Name: config.UserExtremelyHeavy, ThinkTime: config.Const(0), Fraction: 1,
		Lifecycle: &config.Lifecycle{Arrive: &arrive},
	}}
	gen, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.Ops == 0 {
		t.Fatal("arriving users ran no operations")
	}
	early := 0
	gen.Log().Each(func(rec *trace.Record) {
		if rec.Start < 2e6 {
			early++
		}
	})
	if early > 0 {
		t.Errorf("%d records start before the constant 2 s arrival time", early)
	}
}

// TestServerOutageHardMountRidesOut is the fault5.7 acceptance property in
// unit form: during a server outage, hard-mounted clients retry with capped
// exponential backoff and never give up; the windowed view shows dead
// windows during the outage; the server restarts once with a cold block
// cache; and the run ends with zero errors — the outage cost time, not
// correctness.
func TestServerOutageHardMountRidesOut(t *testing.T) {
	spec := config.Default()
	spec.Users = 2
	spec.Sessions = 30
	spec.SystemFiles = 30
	spec.FilesPerUser = 20
	spec.Seed = 20260808
	spec.UserTypes = config.ExtremelyHeavyPopulation()
	spec.Trace.WindowUS = 1e6
	spec.Fault = &fault.Plan{
		Name:          "outage-test",
		ServerOutages: []fault.Outage{{Start: 5e6, End: 10e6}},
		NetTimeout:    100_000,
		NetBackoff:    2,
		NetMaxTimeout: 1_600_000,
		NetHard:       true,
	}
	gen, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualDuration <= 10e6 {
		t.Fatalf("run ended at %v µs, inside the outage window; outage check is vacuous", res.VirtualDuration)
	}
	link := gen.Link()
	if link.Retransmits() == 0 {
		t.Error("outage produced no retransmissions")
	}
	if link.GiveUps() != 0 {
		t.Errorf("hard mount gave up %d times; must be 0 by construction", link.GiveUps())
	}
	if link.BlockedTime() <= 0 {
		t.Error("retry holds accumulated no blocked time")
	}
	if got := gen.Server().Restarts(); got != 1 {
		t.Errorf("server restarts = %d, want 1", got)
	}
	if fe := gen.Faults(); fe.OutageDrops() == 0 {
		t.Error("no calls were swallowed by the dead server")
	}
	if res.Analysis.Errors != 0 {
		t.Errorf("hard-mounted outage run recorded %d errors, want 0", res.Analysis.Errors)
	}
	wins := gen.Windows().Finish()
	if len(wins) == 0 {
		t.Fatal("windowed collector produced no windows")
	}
	dead := false
	for _, w := range wins {
		if w.Start >= 5e6 && w.End <= 10e6 && w.Ops == 0 {
			dead = true
		}
	}
	if !dead {
		t.Error("no zero-completion window inside the outage — the outage did not bite")
	}
}
