// Package sim is a deterministic continuation-passing discrete-event
// simulation kernel. It is the substrate on which the simulated NFS server,
// disks, and network links run, replacing the real SUN 3/50 + SUN 4/490
// testbed the thesis measured.
//
// Virtual time is a float64 in microseconds, matching the units of the
// thesis's response-time tables. A process is not a goroutine: it is a chain
// of continuation closures. Each blocking point (Proc.Hold, Resource.Acquire)
// stores the rest of the process's work on the event calendar and returns,
// unwinding to Run's event loop; the loop pops the earliest event and calls
// its continuation. The whole simulation therefore executes on the caller's
// single goroutine with zero channel operations, zero parked goroutines, and
// no synchronization on the hot path.
//
// The event calendar is a concrete binary heap of event values (no
// container/heap interface boxing), ordered by time with a sequence-number
// tie-break, so whole simulations are reproducible bit-for-bit given a
// seeded random source. The most recently scheduled event waits in a front
// slot outside the heap: a continuation usually schedules the very event
// that runs next (a Hold's wake-up, a hand-off at the current instant), and
// the slot lets that event skip the heap's push and pop. The front always
// carries the largest sequence number pending, so it runs only when its
// time is strictly earlier than the heap's top, and order stays (time,
// sequence) by construction. The schedule points — one event per Hold, one
// per Start, one per Resource hand-off — are exactly those of the previous
// goroutine kernel, so event order is bit-identical to it.
//
// In the DES→workload→trace→analysis pipeline this kernel is the first
// stage: every simulated component (nfs, netsim, disk) schedules here, and
// everything downstream inherits its virtual clock and determinism.
package sim

import (
	"errors"
	"fmt"
)

// Time is virtual time in microseconds.
type Time = float64

// K is a continuation: the rest of a process's work after a blocking point.
type K = func()

// ErrStalled is returned by Run when live processes remain but no future
// events exist — every process is parked on a resource that will never be
// released (a deadlock in the simulated system).
var ErrStalled = errors.New("sim: all processes blocked with no pending events")

type event struct {
	at  Time
	seq int64 // tie-breaker for deterministic ordering of simultaneous events
	k   K
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Env is a simulation environment: a virtual clock and an event calendar.
// Create with NewEnv. An Env is single-threaded by construction — Run's
// event loop and every continuation it calls execute on one goroutine — and
// is not safe for use from any other goroutine while Run is in progress.
type Env struct {
	now Time
	// front is the most recently scheduled event, held outside the heap
	// while hasFront; it has the largest seq of any pending event.
	front    event
	hasFront bool
	events   []event // binary min-heap ordered by eventLess
	seq      int64
	live     int // started but unfinished processes
}

// NewEnv returns an environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Live returns the number of started but unfinished processes.
func (e *Env) Live() int { return e.live }

// Proc is one simulated process: a name and an environment. Its state lives
// in the closures the process body threads through its blocking calls, not
// in a goroutine stack. Methods must only be called from continuations the
// kernel is currently running (exactly one runs at a time).
type Proc struct {
	env  *Env
	name string
}

// Name returns the process name given to Start.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Hold advances the process by d microseconds of virtual time: it schedules
// k at now+d and returns, handing the event loop back to the kernel.
// Negative holds are treated as zero. Code after a Hold call runs before k —
// put the rest of the process's work inside k, not after the call.
func (p *Proc) Hold(d Time, k K) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, k)
}

// Start registers fn as a new process, to begin at the current virtual time.
// It may be called before Run or from inside a running process. The body
// receives a done continuation it must call exactly once when the process's
// work is complete (the continuation-passing analogue of returning from a
// process function); a body that never calls done counts as live forever and
// trips ErrStalled when the calendar drains.
func (e *Env) Start(name string, fn func(p *Proc, done K)) {
	p := &Proc{env: e, name: name}
	e.live++
	done := func() { e.live-- }               //wlint:allow hotalloc one closure per process launch, amortized over the process's whole event stream
	e.schedule(e.now, func() { fn(p, done) }) //wlint:allow hotalloc one closure per process launch, amortized over the process's whole event stream
}

// schedule makes k the front event at time at, pushing the front it
// displaces onto the heap (sift-up on a concrete slice; no interface
// boxing).
func (e *Env) schedule(at Time, k K) {
	e.seq++
	if e.hasFront {
		e.push(e.front)
	}
	e.front, e.hasFront = event{at: at, seq: e.seq, k: k}, true
}

// push adds an event to the heap.
func (e *Env) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.events = h
}

// pop removes and returns the earliest event (sift-down).
func (e *Env) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the continuation reference
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && eventLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	e.events = h
	return top
}

// Run processes events until the calendar is empty or the clock would pass
// until (use Forever to run to completion). It returns ErrStalled if live
// processes remain but no events are pending. Run may be called again to
// continue a partially-run simulation.
func (e *Env) Run(until Time) error {
	for {
		var ev event
		if e.hasFront && (len(e.events) == 0 || e.front.at < e.events[0].at) {
			if e.front.at > until {
				break
			}
			ev = e.front
			e.front, e.hasFront = event{}, false
		} else if len(e.events) > 0 && e.events[0].at <= until {
			ev = e.pop()
		} else {
			break
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.k()
	}
	if !e.hasFront && len(e.events) == 0 && e.live > 0 {
		return fmt.Errorf("%w: %d live processes", ErrStalled, e.live)
	}
	return nil
}

// Forever is a convenient until value for Run.
const Forever = Time(1e18)
