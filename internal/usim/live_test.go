package usim

import (
	"slices"
	"testing"

	"uswg/internal/config"
	"uswg/internal/rng"
	"uswg/internal/vfs"
)

// pickCheckCtx is a synchronous Ctx that checks a session's live set at
// the two points that precede every pick: the session's first Now() (the
// lifecycle check at the top of drive, before its first pick) and every
// think-time hold (the last thing afterStep does before drive picks again).
// The file system charges no time, so every hold is a think hold except
// the reboot after a crash, which is never longer than repair.
type pickCheckCtx struct {
	vfs.ManualClock
	t      *testing.T
	ses    *session
	repair float64
	fresh  bool // no Now() yet in this session
	checks int
}

func (c *pickCheckCtx) Now() float64 {
	if c.fresh {
		c.fresh = false
		c.check()
	}
	return c.ManualClock.Now()
}

func (c *pickCheckCtx) Hold(d float64, k func()) {
	if d > c.repair {
		c.check()
	}
	c.ManualClock.Hold(d, k)
}

// check asserts that the maintained live list is items filtered by
// itemLive, in items order.
func (c *pickCheckCtx) check() {
	c.t.Helper()
	var want []*workItem
	for _, it := range c.ses.items {
		if itemLive(it) {
			want = append(want, it)
		}
	}
	if !slices.Equal(c.ses.live, want) {
		c.t.Fatalf("session %d op %d: live set has %d items, items filtered by itemLive has %d (or the order differs)",
			c.ses.id, c.ses.ops, len(c.ses.live), len(want))
	}
	c.checks++
}

// TestLiveSetMatchesFilter runs sessions with the Locality extension on and
// a lifecycle that crashes mid-session under a synchronous Ctx, and checks
// before every pick that the incrementally kept live set equals the
// per-op filter it replaces.
func TestLiveSetMatchesFilter(t *testing.T) {
	const think, repair = 1000.0, 500.0
	s, _ := harness(t, func(sp *config.Spec) {
		sp.Ext.Locality = 0.5
		mttf, mttr := config.Exp(3e5), config.Const(repair)
		sp.UserTypes = []config.UserType{{
			Name: config.UserHeavy, ThinkTime: config.Const(think), Fraction: 1,
			Lifecycle: &config.Lifecycle{MTTF: &mttf, MTTR: &mttr},
		}}
	})
	ls := s.life[0]
	ls.arm(0)
	ctx := &pickCheckCtx{t: t, repair: repair}
	ar := newArena()
	ctx.ses = &ar.ses
	ops := 0
	for id := 0; id < 30; id++ {
		ctx.fresh = true
		done := false
		if err := s.runSessionK(ctx, ar, id, 0, config.UserHeavy, rng.New(uint64(id)), s.sink.Emit, func() { done = true }); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatalf("session %d did not finish under a synchronous Ctx", id)
		}
		ops += ar.ses.ops
	}
	t.Logf("%d sessions, %d ops, %d crashes, %d checks", 30, ops, ls.crashes, ctx.checks)
	if ls.crashes == 0 || ctx.checks < ops {
		t.Fatalf("%d crashes, %d checks for %d ops: the run did not exercise the live set", ls.crashes, ctx.checks, ops)
	}
}
