package sim

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func TestHoldAdvancesClock(t *testing.T) {
	env := NewEnv()
	var at Time
	env.Start("p", func(p *Proc, done K) {
		p.Hold(100, func() {
			at = p.Now()
			done()
		})
	})
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Errorf("time after Hold(100) = %v, want 100", at)
	}
	if env.Now() != 100 {
		t.Errorf("env.Now() = %v, want 100", env.Now())
	}
}

func TestNegativeHoldIsZero(t *testing.T) {
	env := NewEnv()
	var at Time
	env.Start("p", func(p *Proc, done K) {
		p.Hold(-5, func() {
			at = p.Now()
			done()
		})
	})
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Errorf("time after Hold(-5) = %v, want 0", at)
	}
}

func TestEventOrdering(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Start("late", func(p *Proc, done K) {
		p.Hold(20, func() {
			order = append(order, "late")
			done()
		})
	})
	env.Start("early", func(p *Proc, done K) {
		p.Hold(10, func() {
			order = append(order, "early")
			done()
		})
	})
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Errorf("order = %v, want [early late]", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	// Events at the same instant run in scheduling order (seq tie-break).
	env := NewEnv()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		env.Start(name, func(p *Proc, done K) {
			p.Hold(5, func() {
				order = append(order, name)
				done()
			})
		})
	}
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	want := "abc"
	var got string
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	var reached bool
	env.Start("p", func(p *Proc, done K) {
		p.Hold(50, func() {
			p.Hold(100, func() {
				reached = true
				done()
			})
		})
	})
	if err := env.Run(60); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Error("process should not have passed t=150 when run until 60")
	}
	if env.Now() != 50 {
		t.Errorf("clock = %v, want 50", env.Now())
	}
	// Continue to completion.
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if !reached || env.Now() != 150 {
		t.Errorf("after full run: reached=%v now=%v", reached, env.Now())
	}
}

func TestStartFromWithinProcess(t *testing.T) {
	env := NewEnv()
	var childRan bool
	env.Start("parent", func(p *Proc, done K) {
		p.Hold(10, func() {
			p.Env().Start("child", func(c *Proc, childDone K) {
				c.Hold(5, func() {
					childRan = true
					childDone()
				})
			})
			p.Hold(10, done)
		})
	})
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child process never ran")
	}
}

func TestResourceExclusive(t *testing.T) {
	// Two processes contend for a single server with service time 10; the
	// second must finish at 20.
	env := NewEnv()
	res := NewResource(env, 1)
	var done [2]Time
	for i := 0; i < 2; i++ {
		i := i
		env.Start("p", func(p *Proc, fin K) {
			res.Acquire(p, func() {
				p.Hold(10, func() {
					res.Release()
					done[i] = p.Now()
					fin()
				})
			})
		})
	}
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if done[0] != 10 || done[1] != 20 {
		t.Errorf("completion times = %v, want [10 20]", done)
	}
}

func TestResourceMultiServer(t *testing.T) {
	// Three processes, two servers, service 10: completions at 10, 10, 20.
	env := NewEnv()
	res := NewResource(env, 2)
	var done [3]Time
	for i := 0; i < 3; i++ {
		i := i
		env.Start("p", func(p *Proc, fin K) {
			res.Acquire(p, func() {
				p.Hold(10, func() {
					res.Release()
					done[i] = p.Now()
					fin()
				})
			})
		})
	}
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if done[0] != 10 || done[1] != 10 || done[2] != 20 {
		t.Errorf("completion times = %v, want [10 10 20]", done)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Start("p", func(p *Proc, fin K) {
			p.Hold(Time(i), func() { // stagger arrivals: 0,1,2,3,4
				res.Acquire(p, func() {
					p.Hold(10, func() {
						res.Release()
						order = append(order, i)
						fin()
					})
				})
			})
		})
	}
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

// TestResourceQueueMatchesSliceFIFO drives bursts of 3, 17 and 64 waiters,
// interleaved with partial releases, through the ring queue — wrapping its
// head and doubling it several times — beside the plain slice FIFO it
// replaced. Grants must follow arrival order, and QueueLen and the wait
// total must match the reference after every step.
func TestResourceQueueMatchesSliceFIFO(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 2)
	type queued struct {
		id    int
		start Time
	}
	var ref []queued
	var refWait Time
	var granted, want []int
	check := func(when string) {
		t.Helper()
		if res.QueueLen() != len(ref) || res.waitTotal != refWait {
			t.Fatalf("%s: QueueLen %d, wait total %v; reference %d, %v", when, res.QueueLen(), res.waitTotal, len(ref), refWait)
		}
	}
	advance := func(d Time) {
		env.schedule(env.now+d, func() {})
		if err := env.Run(Forever); err != nil {
			t.Fatal(err)
		}
	}
	res.Acquire(nil, func() {}) // both servers stay busy: every later
	res.Acquire(nil, func() {}) // acquisition queues
	next := 0
	for round := range 6 {
		for _, burst := range []int{3, 17, 64} {
			for range burst {
				id := next
				next++
				res.Acquire(nil, func() { granted = append(granted, id) })
				ref = append(ref, queued{id: id, start: env.now})
				check("arrival")
			}
			advance(Time(1 + round))
			for range min(burst/2+round, len(ref)) {
				res.Release()
				refWait += env.now - ref[0].start
				want = append(want, ref[0].id)
				ref = ref[1:]
				check("release")
			}
			advance(0.5)
		}
	}
	for len(ref) > 0 {
		res.Release()
		refWait += env.now - ref[0].start
		want = append(want, ref[0].id)
		ref = ref[1:]
		check("drain")
		advance(0.25)
	}
	if len(res.queue) < 256 {
		t.Errorf("ring grew to %d slots; the test meant to double it past 128", len(res.queue))
	}
	if !slices.Equal(granted, want) {
		t.Errorf("grant order diverges from arrival order:\n got %v\nwant %v", granted, want)
	}
}

// TestResourceSteadyQueueAllocs pins the ring's reuse: once it has grown,
// a standing queue of processes cycling acquire, hold, release allocates
// nothing.
func TestResourceSteadyQueueAllocs(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	p := &Proc{env: env}
	for range 8 {
		var held, release func()
		held = func() { p.Hold(1, release) }
		release = func() {
			res.Release()
			res.Acquire(p, held)
		}
		res.Acquire(p, held)
	}
	run := func() {
		if err := env.Run(env.now + 64); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("64 contended cycles allocate %v times, want 0", allocs)
	}
	if res.QueueLen() != 7 || res.Acquired() < 50*64 {
		t.Errorf("queue length %d after %d acquisitions, want a standing queue of 7", res.QueueLen(), res.Acquired())
	}
}

func TestResourceStats(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	for i := 0; i < 2; i++ {
		env.Start("p", func(p *Proc, fin K) {
			res.Acquire(p, func() {
				p.Hold(10, func() {
					res.Release()
					fin()
				})
			})
		})
	}
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if res.Acquired() != 2 {
		t.Errorf("Acquired = %d, want 2", res.Acquired())
	}
	// Second process waited 10; mean wait = 5.
	if got := res.MeanWait(); got != 5 {
		t.Errorf("MeanWait = %v, want 5", got)
	}
	// Single server busy 20 of 20 time units.
	if got := res.Utilization(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Utilization = %v, want 1", got)
	}
}

func TestStalledDetection(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	env.Start("holder", func(p *Proc, fin K) {
		res.Acquire(p, func() {
			// Never releases; waiter below can never proceed. The holder
			// itself finishes, leaving the waiter parked with no events.
			fin()
		})
	})
	env.Start("waiter", func(p *Proc, fin K) {
		res.Acquire(p, func() {
			res.Release()
			fin()
		})
	})
	err := env.Run(Forever)
	if !errors.Is(err, ErrStalled) {
		t.Errorf("Run = %v, want ErrStalled", err)
	}
	if env.Live() != 1 {
		t.Errorf("Live = %d, want 1", env.Live())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		env := NewEnv()
		res := NewResource(env, 2)
		var times []Time
		for i := 0; i < 20; i++ {
			i := i
			env.Start("p", func(p *Proc, fin K) {
				p.Hold(Time(i%7), func() {
					res.Acquire(p, func() {
						p.Hold(Time(3+i%5), func() {
							res.Release()
							times = append(times, p.Now())
							fin()
						})
					})
				})
			})
		}
		if err := env.Run(Forever); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("different completion counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResourceServersMinimumOne(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 0)
	if res.Servers() != 1 {
		t.Errorf("Servers = %d, want clamped to 1", res.Servers())
	}
}

// TestReleaseWithNothingHeldPanics: a release with no server held, such as
// a second release of one grant, panics instead of being absorbed, and
// leaves the resource's count where it was.
func TestReleaseWithNothingHeldPanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	res.Acquire(nil, func() {})
	res.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second Release of one grant did not panic")
		}
		if res.InUse() != 0 || res.Acquired() != 1 {
			t.Errorf("after the bad release: %d held, %d acquired; want 0 and 1", res.InUse(), res.Acquired())
		}
	}()
	res.Release()
}

func TestManyProcessesQueueing(t *testing.T) {
	// N processes through a single server with unit service: last finishes
	// at N, mean wait = (N-1)/2.
	const n = 100
	env := NewEnv()
	res := NewResource(env, 1)
	var last Time
	for i := 0; i < n; i++ {
		env.Start("p", func(p *Proc, fin K) {
			res.Acquire(p, func() {
				p.Hold(1, func() {
					res.Release()
					last = p.Now()
					fin()
				})
			})
		})
	}
	if err := env.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if last != n {
		t.Errorf("last completion = %v, want %v", last, n)
	}
	want := float64(n-1) / 2
	if math.Abs(res.MeanWait()-want) > 1e-9 {
		t.Errorf("MeanWait = %v, want %v", res.MeanWait(), want)
	}
}

// chain runs a sequence of stages on p, each holding for its duration, then
// calls fin — a helper for writing straight-line-looking CPS tests.
func chain(p *Proc, durations []Time, each func(), fin K) {
	i := 0
	var loop func()
	loop = func() {
		if i >= len(durations) {
			fin()
			return
		}
		d := durations[i]
		i++
		p.Hold(d, func() {
			each()
			loop()
		})
	}
	loop()
}

// TestHoldIsCheap pins the hot path's cost: one Hold schedules one event
// and allocates at most the event slot and continuation closure — no
// channels, no goroutines.
func TestHoldIsCheap(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		env := NewEnv()
		env.Start("p", func(p *Proc, done K) {
			chain(p, make([]Time, 100), func() {}, done)
		})
		if err := env.Run(Forever); err != nil {
			t.Fatal(err)
		}
	})
	perHold := allocs / 100
	if perHold > 3 {
		t.Errorf("allocations per hold = %v, want <= 3", perHold)
	}
}
