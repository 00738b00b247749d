package sim

import "testing"

// BenchmarkKernelEvents measures ns per calendar event on the kernel hot
// path: a population of processes holding and contending for a small
// resource pool, the access pattern the NFS testbed produces. Every Hold is
// one event; each acquire-hold-release cycle through the contended resource
// adds a hand-off event per queued waiter. The metric is the one the CI
// bench gate tracks for kernel regressions.
func BenchmarkKernelEvents(b *testing.B) {
	const procs = 8
	const holdsPerProc = 1000
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		res := NewResource(env, 2)
		for p := 0; p < procs; p++ {
			p := p
			env.Start("p", func(pr *Proc, done K) {
				h := 0
				var cycle func()
				cycle = func() {
					if h >= holdsPerProc {
						done()
						return
					}
					d := Time(1 + (p+h)%7)
					h++
					pr.Hold(d, func() {
						res.Acquire(pr, func() {
							pr.Hold(2, func() {
								res.Release()
								cycle()
							})
						})
					})
				}
				cycle()
			})
		}
		if err := env.Run(Forever); err != nil {
			b.Fatal(err)
		}
		events += procs * holdsPerProc * 2
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkResourceContended times one acquire/release hand-off through a
// resource with a standing queue: eight processes cycle acquire, hold,
// release on one server, so each op is one release that grants the oldest
// waiter and one acquisition that joins the back of the queue.
func BenchmarkResourceContended(b *testing.B) {
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
	b.ReportAllocs()
	for b.Loop() {
		if err := env.Run(env.now + 1); err != nil {
			b.Fatal(err)
		}
	}
}
