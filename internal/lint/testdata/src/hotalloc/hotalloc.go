// Package hotalloc exercises the hotalloc analyzer. Its import path is
// under internal/lint/testdata, which the analyzer treats as in scope, so
// this package stands in for the CPS hot-path packages (sim, usim, nfs,
// netsim, vfs).
package hotalloc

type engine struct {
	k    func()
	held func()
	next func(*engine)
}

// Package-level initializers run once at init: never flagged.
var global = func() int { return 1 }()

// New is a constructor: once-bound continuations here are the sanctioned
// idiom, not a per-op allocation.
func New() *engine {
	e := &engine{}
	e.k = func() { _ = global }
	return e
}

// bindLoop matches the bind* setup prefix: fine.
func (e *engine) bindLoop() {
	e.k = func() {}
}

// bindTick matches the bind* setup prefix too: a method value bound here
// is made once per object.
func (e *engine) bindTick() {
	e.k = e.tick
}

func (e *engine) hold(k func()) { e.held = k }

func (e *engine) tick() {}

func (e *engine) step(done func()) {
	e.hold(func() { done() }) // want `func literal in step allocates`
}

func (e *engine) drain(done func()) {
	e.hold(done)      // passing an existing func value allocates nothing: fine
	e.hold(func() {}) //wlint:allow hotalloc runs once at teardown, not per event
}

func (e *engine) resume() {
	e.hold(e.tick) // want `method value e.tick in resume allocates`
}

func (e *engine) advance() {
	e.next = (*engine).step2 // a method expression binds no receiver: fine
	e.tick()                 // a method call allocates nothing: fine
	e.hold(e.k)              // a func-typed field is an existing value: fine
}

func (e *engine) step2() {}

func (e *engine) restart() {
	e.hold(e.tick) //wlint:allow hotalloc runs once per restart, not per event
}
