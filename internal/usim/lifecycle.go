package usim

import (
	"fmt"
	"math"
	"math/rand"

	"uswg/internal/config"
	"uswg/internal/dist"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/vfs"
)

// The lifecycle engine makes the population dynamic: users arrive (cold
// caches), depart, and crash mid-session per their type's
// config.Lifecycle. It deliberately schedules no extra DES events. Crash
// and departure times are *deadlines* checked at the session's natural
// re-entry points — the op-select loop, and each operation's completion —
// so a run's event calendar holds only real work and virtual time never
// extends past the last operation or reboot. The cost of that choice is
// that a crash takes effect at the first checkpoint at or after its
// deadline: the operation in flight when the machine died drains through
// the lower layers (the server completes the RPC — work wasted on a dead
// client, as in life) but its record is discarded, and a crash during a
// think-time hold is observed when the hold fires. The observable trace
// therefore ends strictly before the crash deadline.
//
// RunUnderSim's session stream runs the lifecycle: it holds until its
// user's arrival, arms the crash deadline at boot and ends at the
// departure, and the session loop checks the deadlines.
//
// Determinism: each user's lifecycle draws come from a private stream
// derived from (seed, "life.user<N>"), built once in initLifecycle for
// every user that can arrive (all of an eager population, the session
// holders of a lazy one), in a fixed order — arrive, depart at
// construction; then MTTF at each boot and MTTR at each crash, which the
// single-threaded DES schedule serializes identically every run. The
// timeline is a pure function of the spec, byte-identical at any sweep
// parallelism. Specs without lifecycle take none of these draws: their
// users have no lifeState, so the runner and the session loop skip every
// deadline check and existing runs stay bit-identical.

// lifeState is one user's lifecycle: sampled arrival/departure times, the
// crash deadline, and churn counters. One per user; nil samplers and
// +Inf deadlines make a user inert (a static class inside a dynamic
// population).
type lifeState struct {
	r          *rand.Rand
	mttf, mttr dist.Distribution
	arriveAt   float64
	departAt   float64 // +Inf: never departs
	maxCrashes int

	crashAt   float64 // next crash deadline; +Inf: none armed
	crashes   int
	reboots   int
	truncated int
	departed  bool
}

// crashed reports whether the crash deadline has passed.
func (ls *lifeState) crashed(now float64) bool { return now >= ls.crashAt }

// departing reports whether the departure time has passed.
func (ls *lifeState) departing(now float64) bool { return now >= ls.departAt }

// arm draws the next crash deadline for a machine booting at now. At least
// 1 µs of uptime is guaranteed so a degenerate MTTF cannot wedge the
// stream in a zero-time crash loop.
func (ls *lifeState) arm(now float64) {
	if ls.mttf == nil || (ls.maxCrashes > 0 && ls.crashes >= ls.maxCrashes) {
		ls.crashAt = math.Inf(1)
		return
	}
	ls.crashAt = now + math.Max(1, ls.mttf.Sample(ls.r))
}

// drain is the crash taking effect: the session is truncated (no logout
// sweep, no further records — the machine lost power, nothing ran), the
// workstation's volatile state is dropped, and the user either ends its
// stream (if it was also past departure) or reboots cold at
// crash + MTTR and continues with the next session id. Session ids stay
// contiguous per stream, so the Summarizer's retirement contract holds and
// the truncated session's accumulators retire the moment the rebooted
// user's first record arrives.
func (ls *lifeState) drain(ses *session) {
	ses.running, ses.pending = false, false
	ls.crashes++
	ls.truncated++
	crashedAt := ls.crashAt
	ls.crashAt = math.Inf(1)

	// Cold boot: a crashing file system (the NFS client, possibly through
	// the fault wrapper) drops descriptors, attribute and page caches, and
	// unflushed write-behind data itself. Other file systems get their
	// open descriptors released cost-free so shared state cannot leak
	// handles across the reboot.
	if cr, ok := ses.fsys.(vfs.Crasher); ok {
		cr.Crash()
	} else {
		for _, it := range ses.items {
			if it.open {
				ses.sync.Close(vfs.ZeroClock{}, it.fd) //nolint:errcheck // crash cleanup
				it.open = false
			}
		}
	}

	now := ses.ctx.Now()
	if ls.departing(now) {
		// Crashed past its departure time: the machine stays down.
		ses.done()
		return
	}
	repair := 0.0
	if ls.mttr != nil {
		repair = math.Max(0, ls.mttr.Sample(ls.r))
	}
	delay := crashedAt + repair - now
	if delay < 0 {
		delay = 0 // the in-flight op drained past the nominal reboot time
	}
	ctx, k := ses.ctx, ses.done
	//wlint:allow hotalloc one closure per crash reboot, not per op
	ctx.Hold(delay, func() {
		ls.reboots++
		ls.arm(ctx.Now())
		k()
	})
}

// initLifecycle compiles each user type's lifecycle distributions and draws
// the arrival and departure times of every user that can arrive; the
// lifecycle table covers those users and no more, so a lazy population's
// idle users cost nothing here. Called from New only when the spec carries
// a lifecycle, so static specs take no extra rng draws.
func (s *Simulator) initLifecycle() error {
	type compiled struct {
		arrive, depart, mttf, mttr dist.Distribution
		maxCrashes                 int
	}
	one := func(d *config.DistSpec) (dist.Distribution, error) {
		if d == nil {
			return nil, nil
		}
		return gds.Compile(*d)
	}
	byType := make(map[string]*compiled, len(s.spec.UserTypes))
	for _, ut := range s.spec.UserTypes {
		lc := ut.Lifecycle
		if lc == nil {
			continue
		}
		c := &compiled{maxCrashes: lc.MaxCrashes}
		var err error
		if c.arrive, err = one(lc.Arrive); err != nil {
			return fmt.Errorf("usim: user type %s lifecycle arrive: %w", ut.Name, err)
		}
		if c.depart, err = one(lc.Depart); err != nil {
			return fmt.Errorf("usim: user type %s lifecycle depart: %w", ut.Name, err)
		}
		if c.mttf, err = one(lc.MTTF); err != nil {
			return fmt.Errorf("usim: user type %s lifecycle mttf: %w", ut.Name, err)
		}
		if c.mttr, err = one(lc.MTTR); err != nil {
			return fmt.Errorf("usim: user type %s lifecycle mttr: %w", ut.Name, err)
		}
		byType[ut.Name] = c
	}
	inf := math.Inf(1)
	n := s.spec.Users
	if s.spec.LazyUsers {
		// A lazy user arrives only if it holds a session (lazy validation
		// rules out concurrent sessions), and shareOf gives sessions to the
		// lowest users first: the table covers that prefix and no more. A
		// user past it never arrives, so it gets no lifecycle state at all
		// (and no process — see RunUnderSim). Its draws come from a private
		// per-user stream, so skipping them perturbs nobody else's.
		n = min(n, s.spec.Sessions)
	}
	s.life = make([]*lifeState, n)
	for u := range s.life {
		ls := &lifeState{departAt: inf, crashAt: inf}
		s.life[u] = ls
		c := byType[s.typeOf(u)]
		if c == nil {
			continue
		}
		ls.mttf, ls.mttr, ls.maxCrashes = c.mttf, c.mttr, c.maxCrashes
		ls.r = rng.Derive(s.spec.Seed, fmt.Sprintf("life.user%d", u))
		if c.arrive != nil {
			ls.arriveAt = math.Max(0, c.arrive.Sample(ls.r))
		}
		if c.depart != nil {
			ls.departAt = math.Max(0, c.depart.Sample(ls.r))
		}
	}
	return nil
}

// ColdStart reports whether the user arrives after t=0 and must therefore
// boot with cold caches: cache warming (core's bindUser) skips it, so
// its first session pays the cache-warming cost a rejoining machine pays.
func (s *Simulator) ColdStart(user int) bool {
	ls := s.lifeOf(user)
	return ls != nil && ls.arriveAt > 0
}

// lifeOf returns the user's lifecycle state, nil for a static user.
func (s *Simulator) lifeOf(user int) *lifeState {
	if user < len(s.life) {
		return s.life[user]
	}
	return nil
}

// ChurnStats summarizes a dynamic population's lifecycle events.
type ChurnStats struct {
	// Crashes is the number of workstation crashes taken.
	Crashes int
	// Reboots is the number of cold-cache reboots completed.
	Reboots int
	// TruncatedSessions is the number of sessions cut short by a crash.
	TruncatedSessions int
	// Departed is the number of users that left before running their full
	// session share.
	Departed int
}

// Churn returns the run's lifecycle event counts (zero for static specs).
func (s *Simulator) Churn() ChurnStats {
	var c ChurnStats
	for _, ls := range s.life {
		if ls == nil {
			continue
		}
		c.Crashes += ls.crashes
		c.Reboots += ls.reboots
		c.TruncatedSessions += ls.truncated
		if ls.departed {
			c.Departed++
		}
	}
	return c
}
