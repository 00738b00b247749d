package sim

// Resource is a multi-server FIFO queueing resource: up to Servers processes
// hold it simultaneously, and further requesters queue in arrival order. It
// models the nfsd daemon pool, a disk arm, or a network link.
//
// Usage from within a process, continuation style:
//
//	res.Acquire(p, func() {
//		p.Hold(serviceTime, func() {
//			res.Release()
//			...
//		})
//	})
type Resource struct {
	env     *Env
	servers int
	inUse   int
	// queue is a ring of the waiting processes, FIFO from head, that
	// doubles when full, so a standing queue (nfsd pool, wire, disk arm)
	// reuses its slots.
	queue   []waiter
	head    int
	waiting int

	// Statistics.
	acquired  int64
	waitTotal Time
	busyTotal Time
	lastBusy  Time // time of last inUse change, for utilization accounting
}

// waiter is one queued acquisition: the continuation to grant and the
// enqueue time (for wait accounting). A struct rather than a wrapping
// closure keeps the contended-acquire path allocation-free.
type waiter struct {
	k     K
	start Time
}

// NewResource returns a resource with the given number of servers (at least 1).
func NewResource(env *Env, servers int) *Resource {
	if servers < 1 {
		servers = 1
	}
	return &Resource{env: env, servers: servers}
}

// InUse returns the number of servers currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting.
func (r *Resource) QueueLen() int { return r.waiting }

// Acquire obtains one server and continues with k. If all servers are busy
// the continuation is queued in FIFO order and resumed by a later Release;
// otherwise k runs immediately (synchronously, before Acquire returns). The
// p parameter names the acquiring process; it is accepted for call-site
// symmetry with the rest of the kernel API.
func (r *Resource) Acquire(p *Proc, k K) {
	_ = p
	if r.inUse < r.servers {
		r.account()
		r.inUse++
		r.acquired++
		k()
		return
	}
	if r.waiting == len(r.queue) {
		r.grow()
	}
	r.queue[(r.head+r.waiting)&(len(r.queue)-1)] = waiter{k: k, start: r.env.now}
	r.waiting++
}

// grow doubles the ring (its length stays a power of two), moving the
// waiters to the front in FIFO order.
func (r *Resource) grow() {
	q := make([]waiter, max(4, 2*len(r.queue)))
	n := copy(q, r.queue[r.head:])
	copy(q[n:], r.queue[:r.head])
	r.queue, r.head = q, 0
}

// Release frees one server, handing it directly to the oldest waiter if any
// (the waiter's continuation is scheduled at the current time, exactly as
// the goroutine kernel scheduled its wake-up event). The releasing process
// transfers its server slot to the waiter, so inUse stays unchanged; the
// wait is accounted here — the grant event fires at this same instant, so
// the total is identical to accounting inside the woken continuation.
// Release panics when no server is held: a release on the wrong clock, or a
// second release of one grant, is a caller's bug that would otherwise
// corrupt the busy-time integral and the idle checks.
func (r *Resource) Release() {
	if r.waiting > 0 {
		next := r.queue[r.head]
		r.queue[r.head] = waiter{} // drop the granted continuation
		r.head = (r.head + 1) & (len(r.queue) - 1)
		r.waiting--
		r.acquired++
		r.waitTotal += r.env.now - next.start
		r.env.schedule(r.env.now, next.k)
		return
	}
	if r.inUse == 0 {
		panic("sim: Release of a resource with no server held")
	}
	r.account()
	r.inUse--
}

func (r *Resource) account() {
	r.busyTotal += Time(r.inUse) * (r.env.now - r.lastBusy)
	r.lastBusy = r.env.now
}

// Acquired returns the total number of successful acquisitions.
func (r *Resource) Acquired() int64 { return r.acquired }

// MeanWait returns the average time spent queued per acquisition.
func (r *Resource) MeanWait() Time {
	if r.acquired == 0 {
		return 0
	}
	return r.waitTotal / Time(r.acquired)
}

// Utilization returns the time-averaged fraction of servers busy since the
// start of the simulation.
func (r *Resource) Utilization() float64 {
	r.account()
	if r.env.now == 0 {
		return 0
	}
	return r.busyTotal / (Time(r.servers) * r.env.now)
}
