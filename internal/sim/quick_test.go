package sim

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickHoldsCompleteInOrder verifies the kernel's core invariant: no
// matter how processes interleave holds, every process observes
// non-decreasing time, and a single process's holds sum exactly.
func TestQuickHoldsCompleteInOrder(t *testing.T) {
	f := func(seed int64, procsRaw, holdsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		procs := 1 + int(procsRaw%8)
		holds := 1 + int(holdsRaw%16)
		env := NewEnv()
		totals := make([]float64, procs)
		finals := make([]float64, procs)
		violated := false
		for i := 0; i < procs; i++ {
			i := i
			durations := make([]float64, holds)
			for j := range durations {
				durations[j] = float64(r.Intn(1000))
				totals[i] += durations[j]
			}
			env.Start("p", func(p *Proc, done K) {
				prev := p.Now()
				j := 0
				var loop func()
				loop = func() {
					if j >= len(durations) {
						finals[i] = p.Now()
						done()
						return
					}
					d := durations[j]
					j++
					p.Hold(d, func() {
						if p.Now() < prev {
							violated = true
						}
						prev = p.Now()
						loop()
					})
				}
				loop()
			})
		}
		if err := env.Run(Forever); err != nil {
			return false
		}
		if violated {
			return false
		}
		for i := range totals {
			if finals[i] != totals[i] {
				return false
			}
		}
		// The clock ends at the max of all completions.
		var max float64
		for _, f := range finals {
			if f > max {
				max = f
			}
		}
		return env.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickResourceNeverOversubscribed drives random acquire/hold/release
// cycles and asserts the in-use count never exceeds the server count and
// FIFO waiters eventually all complete.
func TestQuickResourceNeverOversubscribed(t *testing.T) {
	f := func(seed int64, serversRaw, procsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		servers := 1 + int(serversRaw%4)
		procs := 1 + int(procsRaw%12)
		env := NewEnv()
		res := NewResource(env, servers)
		completed := 0
		over := false
		for i := 0; i < procs; i++ {
			hold := float64(1 + r.Intn(500))
			start := float64(r.Intn(200))
			env.Start("w", func(p *Proc, done K) {
				p.Hold(start, func() {
					res.Acquire(p, func() {
						if res.InUse() > servers {
							over = true
						}
						p.Hold(hold, func() {
							res.Release()
							completed++
							done()
						})
					})
				})
			})
		}
		if err := env.Run(Forever); err != nil {
			return false
		}
		return !over && completed == procs && res.InUse() == 0 && res.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterministicReplay runs the same random scenario twice and
// demands identical completion times — the reproducibility the whole
// generator depends on.
func TestQuickDeterministicReplay(t *testing.T) {
	scenario := func(seed int64) []float64 {
		r := rand.New(rand.NewSource(seed))
		env := NewEnv()
		res := NewResource(env, 2)
		n := 3 + r.Intn(6)
		done := make([]float64, n)
		for i := 0; i < n; i++ {
			i := i
			a, b := float64(r.Intn(300)), float64(r.Intn(300))
			env.Start("p", func(p *Proc, fin K) {
				p.Hold(a, func() {
					res.Acquire(p, func() {
						p.Hold(b, func() {
							res.Release()
							done[i] = p.Now()
							fin()
						})
					})
				})
			})
		}
		if err := env.Run(Forever); err != nil {
			return nil
		}
		return done
	}
	f := func(seed int64) bool {
		a, b := scenario(seed), scenario(seed)
		if a == nil || b == nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Completion times sorted must be non-decreasing (sanity).
		c := append([]float64{}, a...)
		sort.Float64s(c)
		return c[len(c)-1] >= c[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// orderKernel is the surface a random program drives: the kernel under
// test, or the reference calendar.
type orderKernel interface {
	start(body func(hold func(Time, K), done K))
	acquire(k K)
	release()
	run(until Time) error
	now() Time
}

// envKernel is the kernel under test: an Env and a two-server Resource.
type envKernel struct {
	env *Env
	res *Resource
}

func (k *envKernel) start(body func(hold func(Time, K), done K)) {
	k.env.Start("p", func(p *Proc, done K) { body(p.Hold, done) })
}
func (k *envKernel) acquire(c K)          { k.res.Acquire(nil, c) }
func (k *envKernel) release()             { k.res.Release() }
func (k *envKernel) run(until Time) error { return k.env.Run(until) }
func (k *envKernel) now() Time            { return k.env.Now() }

// refKernel is the reference calendar: an unordered list of events, each
// run picking the least (at, seq) by a linear scan, and a FIFO two-server
// resource whose release grants the oldest waiter by an event at the
// current time.
type refKernel struct {
	clock   Time
	seq     int64
	cal     []event
	live    int
	inUse   int
	waiting []K
}

func (k *refKernel) schedule(at Time, c K) {
	k.seq++
	k.cal = append(k.cal, event{at: at, seq: k.seq, k: c})
}

func (k *refKernel) start(body func(hold func(Time, K), done K)) {
	k.live++
	hold := func(d Time, c K) { k.schedule(k.clock+max(d, 0), c) }
	k.schedule(k.clock, func() { body(hold, func() { k.live-- }) })
}

func (k *refKernel) acquire(c K) {
	if k.inUse < 2 {
		k.inUse++
		c()
		return
	}
	k.waiting = append(k.waiting, c)
}

func (k *refKernel) release() {
	if len(k.waiting) > 0 {
		c := k.waiting[0]
		k.waiting = k.waiting[1:]
		k.schedule(k.clock, c)
		return
	}
	k.inUse--
}

func (k *refKernel) run(until Time) error {
	for len(k.cal) > 0 {
		best := 0
		for i, ev := range k.cal {
			if ev.at < k.cal[best].at || ev.at == k.cal[best].at && ev.seq < k.cal[best].seq {
				best = i
			}
		}
		ev := k.cal[best]
		if ev.at > until {
			break
		}
		k.cal = append(k.cal[:best], k.cal[best+1:]...)
		k.clock = max(k.clock, ev.at)
		ev.k()
	}
	if len(k.cal) == 0 && k.live > 0 {
		return ErrStalled
	}
	return nil
}

func (k *refKernel) now() Time { return k.clock }

// orderDelays are the hold lengths a program draws from; the zeros make
// many events tie in time.
var orderDelays = []Time{0, 0, 0, 1, 2, 5}

// orderProg is a random program. Each continuation, when it runs, logs its
// id and schedules 0-3 more from the program's rng: holds, resource
// hand-offs (acquire, hold, release) and new processes. A process calls
// done once it has no continuation pending. Some programs leak one
// resource server, held by a process that never finishes, so waiters can
// stall.
type orderProg struct {
	r      *rand.Rand
	k      orderKernel
	budget int  // continuations still to create
	leak   bool // the next hand-off keeps its server for good
	id     int
	ran    []int
}

func (g *orderProg) proc(hold func(Time, K), done K) {
	pending := 0
	var step func()
	cont := func(body func()) K {
		id := g.id
		g.id++
		pending++
		return func() {
			g.ran = append(g.ran, id)
			body()
			if pending--; pending == 0 {
				done()
			}
		}
	}
	step = func() {
		n := 0
		if g.budget > 0 {
			n = g.r.Intn(4)
		}
		for range n {
			g.budget--
			d := orderDelays[g.r.Intn(len(orderDelays))]
			switch g.r.Intn(6) {
			case 0:
				if g.leak {
					g.leak = false
					g.k.acquire(cont(func() { pending++ }))
					continue
				}
				g.k.acquire(cont(func() {
					hold(d, cont(func() {
						g.k.release()
						step()
					}))
				}))
			case 1:
				g.k.start(g.proc)
			default:
				hold(d, cont(step))
			}
		}
	}
	cont(step)()
}

// TestKernelMatchesReferenceCalendar runs random programs on the kernel and
// on the reference calendar and demands the same sequence of continuations,
// the same clock and the same ErrStalled verdict after every Run. Each
// program runs to a few random cut points with Run(until), then resumes to
// completion, so events left pending at a cut (the front slot among them)
// must survive into the next Run.
func TestKernelMatchesReferenceCalendar(t *testing.T) {
	f := func(seed int64) bool {
		progs := [2]*orderProg{}
		kernels := [2]orderKernel{}
		env := NewEnv()
		kernels[0] = &envKernel{env: env, res: NewResource(env, 2)}
		kernels[1] = &refKernel{}
		var cuts []Time
		for i := range kernels {
			r := rand.New(rand.NewSource(seed))
			g := &orderProg{r: r, k: kernels[i], budget: 20 + r.Intn(200), leak: r.Intn(4) == 0}
			for range 1 + r.Intn(4) {
				kernels[i].start(g.proc)
			}
			// Both programs draw the cut points, which keeps their rngs in
			// step; the two lists are equal.
			cuts = cuts[:0]
			for range r.Intn(4) {
				cuts = append(cuts, Time(r.Intn(40)))
			}
			sort.Float64s(cuts)
			progs[i] = g
		}
		for _, until := range append(cuts, Forever) {
			got, want := kernels[0].run(until), kernels[1].run(until)
			if errors.Is(got, ErrStalled) != errors.Is(want, ErrStalled) || (got == nil) != (want == nil) {
				t.Logf("seed %d: Run(%v) = %v, reference %v", seed, until, got, want)
				return false
			}
			if kernels[0].now() != kernels[1].now() {
				t.Logf("seed %d: Run(%v) ends at %v, reference at %v", seed, until, kernels[0].now(), kernels[1].now())
				return false
			}
			if !slices.Equal(progs[0].ran, progs[1].ran) {
				i := 0
				for i < min(len(progs[0].ran), len(progs[1].ran)) && progs[0].ran[i] == progs[1].ran[i] {
					i++
				}
				t.Logf("seed %d: Run(%v): continuation %d differs (%d ran, reference %d)", seed, until, i, len(progs[0].ran), len(progs[1].ran))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
