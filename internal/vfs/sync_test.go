package vfs

import (
	"strings"
	"testing"

	"uswg/internal/sim"
)

// TestSyncPanicsUnderSuspendingCtx: from a DES process a charged read holds
// on the calendar, so MemFS returns before the read's continuation runs,
// and Sync must panic rather than hand back a result it does not have.
func TestSyncPanicsUnderSuspendingCtx(t *testing.T) {
	env := sim.NewEnv()
	m := NewMemFS(WithCostModel(NewLocalCost(env, testCostConfig())))
	s := &Sync{FS: m}
	setup := &ManualClock{}
	fd, err := s.Create(setup, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(setup, fd, 8192); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(setup, fd); err != nil {
		t.Fatal(err)
	}
	if fd, err = s.Open(setup, "/f", ReadOnly); err != nil {
		t.Fatal(err)
	}
	var got any
	env.Start("reader", func(p *sim.Proc, done sim.K) {
		defer func() {
			got = recover()
			done()
		}()
		s.Read(p, fd, 4096) //nolint:errcheck // panics before returning
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if msg, _ := got.(string); !strings.Contains(msg, "continuation did not complete inline") {
		t.Errorf("Sync.Read under a suspending Ctx recovered %v, want the inline-completion panic", got)
	}
}
