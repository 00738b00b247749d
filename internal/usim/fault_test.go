package usim

import (
	"testing"

	"uswg/internal/config"
	"uswg/internal/fault"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// eio fails a fraction of all calls, each fault charging 100 µs.
func eio(rate float64) fault.Rule {
	return fault.Rule{Name: "eio", Ops: []string{"*"}, Prob: rate, Err: fault.EIO, Latency: 100}
}

// faultyHarness builds a simulator whose file system fails calls through
// the fault engine as the rule says.
func faultyHarness(t *testing.T, rule fault.Rule) *Simulator {
	t.Helper()
	spec := config.Default()
	spec.Users = 1
	spec.Sessions = 10
	spec.SystemFiles = 40
	spec.FilesPerUser = 30
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	inner := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	// Build the initial file system on the reliable inner FS, then wrap.
	inv, err := fsc.Build(&vfs.ManualClock{}, inner, spec, tables, rng.New(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(&fault.Plan{Name: "usim-test", Rules: []fault.Rule{rule}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(spec, tables, inv, fault.NewFS(inner, eng), &trace.Log{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionsSurviveFaults(t *testing.T) {
	s := faultyHarness(t, eio(0.05))
	ctx := &vfs.ManualClock{}
	for i := 0; i < 10; i++ {
		if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(uint64(i))); err != nil {
			t.Fatalf("session %d aborted: %v", i, err)
		}
	}
	a := trace.Analyze(s.Log())
	if a.Errors == 0 {
		t.Fatal("no faults observed at 5% rate")
	}
	if len(a.Sessions) != 10 {
		t.Errorf("sessions analyzed = %d, want all 10", len(a.Sessions))
	}
	// Despite faults, plenty of work still completed.
	if a.AccessSize.N() == 0 {
		t.Error("no data ops completed")
	}
	// Error records carry the errno text for the analyzer.
	found := false
	for _, r := range s.Log().Records() {
		if r.Err != "" {
			found = true
			if r.Bytes != 0 {
				t.Errorf("failed op logged %d bytes", r.Bytes)
			}
		}
	}
	if !found {
		t.Error("no error records in log")
	}
}

func TestHighFaultRateStillTerminates(t *testing.T) {
	s := faultyHarness(t, eio(0.6))
	ctx := &vfs.ManualClock{}
	for i := 0; i < 5; i++ {
		if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(uint64(i))); err != nil {
			t.Fatalf("session %d aborted: %v", i, err)
		}
	}
	// No descriptor leaks even under heavy failure: every successful
	// open/create is balanced by a close.
	balance := 0
	for _, r := range s.Log().Records() {
		if r.Err != "" {
			continue
		}
		switch r.Op {
		case trace.OpOpen, trace.OpCreate:
			balance++
		case trace.OpClose:
			balance--
		}
	}
	if balance != 0 {
		t.Errorf("open/close imbalance under faults: %d", balance)
	}
}

func TestFaultsChargeTime(t *testing.T) {
	run := func(rate float64) (errors int, elapsed float64) {
		s := faultyHarness(t, eio(rate))
		ctx := &vfs.ManualClock{}
		for i := 0; i < 5; i++ {
			if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(3)); err != nil {
				t.Fatal(err)
			}
		}
		a := trace.Analyze(s.Log())
		var resp float64
		for _, sess := range a.Sessions {
			resp += sess.ResponseTotal
		}
		return a.Errors, resp
	}
	cleanErrs, cleanResp := run(0)
	dirtyErrs, dirtyResp := run(0.3)
	if cleanErrs != 0 {
		t.Fatalf("clean run had %d errors", cleanErrs)
	}
	if dirtyErrs == 0 {
		t.Fatal("faulty run had no errors")
	}
	// The inner MemFS is cost-free, so ALL response time in the faulty
	// run comes from the 100 µs charged per injected fault.
	if cleanResp != 0 {
		t.Errorf("clean response total = %v on a cost-free FS", cleanResp)
	}
	if want := float64(dirtyErrs) * 100; dirtyResp < want*0.9 {
		t.Errorf("faulty response total %v, want >= ~%v", dirtyResp, want)
	}
}

// TestFailedSizeLookupReturnsItem: a file whose size lookup fails drops out
// of the session, and its workItem goes back to the arena, so the free list
// a recycled arena starts each session from never shrinks.
func TestFailedSizeLookupReturnsItem(t *testing.T) {
	s := faultyHarness(t, fault.Rule{Name: "stat", Ops: []string{"stat"}, Prob: 1, Err: fault.EIO})
	ar := newArena()
	for i := 0; i < 64; i++ {
		ar.free = append(ar.free, &workItem{})
	}
	ctx := &vfs.ManualClock{}
	for i := 0; i < 5; i++ {
		done := false
		if err := s.runSessionK(ctx, ar, i, 0, config.UserHeavy, rng.New(uint64(i)), s.sink.Emit, func() { done = true }); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatalf("session %d did not finish inline", i)
		}
		ar.reset()
		if n := len(ar.free); n != 64 {
			t.Fatalf("after session %d the arena holds %d free items, want 64", i, n)
		}
	}
}
