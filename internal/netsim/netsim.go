// Package netsim models the shared network between simulated NFS clients
// and the server: a fixed per-message latency (protocol processing plus
// propagation) and serialization of message bytes onto a shared link of
// finite bandwidth. The link is a single-server DES resource, so concurrent
// clients contend for it the way stations contended for 10 Mb/s Ethernet.
// It is a DES-stage component of the pipeline: one of the three queueing
// points (wire, nfsd pool, disk) where response time is made.
package netsim

import (
	"fmt"

	"uswg/internal/sim"
)

// Config describes a network link. Times in microseconds.
type Config struct {
	// LatencyPerMessage is the fixed cost per message (RPC processing,
	// interrupt handling, propagation).
	LatencyPerMessage float64
	// PerByte is the serialization time per byte on the wire.
	PerByte float64
}

// DefaultConfig resembles 10 Mb/s Ethernet with early-90s protocol stacks:
// ~200 µs fixed per message, 0.8 µs per byte (= 1.25 MB/s).
func DefaultConfig() Config {
	return Config{LatencyPerMessage: 200, PerByte: 0.8}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.LatencyPerMessage < 0 || c.PerByte < 0 {
		return fmt.Errorf("netsim: negative timing parameter in %+v", c)
	}
	return nil
}

// Faulter decides the fate of each message on a faulty link: whether the
// message is lost in transit (the sender times out and retransmits) and any
// extra delivery delay in µs (a congested switch, a slow protocol stack).
// The fault engine (package fault) implements it; a nil Faulter is a
// perfectly reliable link.
type Faulter interface {
	Message(now float64) (drop bool, delay float64)
}

// FaultConfig parameterizes retransmission on a faulty link, modelling the
// NFS mount retry knobs: Timeout is the sender's retransmission timeout per
// lost message (timeo), MaxRetries bounds retransmissions per message
// (retrans). On a soft mount the message is delivered anyway after the
// budget — the loss is counted as a give-up and the workload degrades
// rather than wedges.
//
// Backoff > 1 grows the timeout geometrically per retry (timeout ×
// Backoff^tries), capped at MaxTimeout when MaxTimeout > 0 — the capped
// exponential backoff real NFS clients use so a dead server is probed, not
// hammered. Backoff <= 0 means 1 (constant timeout, the historical
// behaviour). Hard selects hard-mount semantics: retry forever, never give
// up; MaxRetries is ignored. Virtual time stays finite as long as the fault
// clears (a permanent outage under a hard mount wedges the run, as it
// wedged real hard-mounted clients).
type FaultConfig struct {
	Timeout    float64
	MaxRetries int
	Backoff    float64
	MaxTimeout float64
	Hard       bool
}

// timeoutFor returns the retransmission timeout for a message already
// retried `tries` times.
func (c FaultConfig) timeoutFor(tries int) float64 {
	d := c.Timeout
	if c.Backoff > 1 {
		for i := 0; i < tries; i++ {
			d *= c.Backoff
			if c.MaxTimeout > 0 && d >= c.MaxTimeout {
				return c.MaxTimeout
			}
		}
	}
	if c.MaxTimeout > 0 && d > c.MaxTimeout {
		d = c.MaxTimeout
	}
	return d
}

// Link is a shared network link.
type Link struct {
	cfg  Config
	wire *sim.Resource

	faulter Faulter
	fcfg    FaultConfig

	// pool is the free list of in-flight transfer states (guarded by the
	// DES scheduler: one simulated process runs at a time). A transfer's
	// whole acquire → serialize → (drop/retry) → deliver chain runs on its
	// state's one bound continuation, so steady-state wire traffic
	// allocates nothing. xfersMade counts the states ever made.
	pool      []*xferState
	xfersMade int

	messages    int64
	bytes       int64
	drops       int64
	retransmits int64
	giveUps     int64
	blockedTime float64
}

// xferState is one in-flight message transfer. It binds one continuation
// when made, which runs the pending step.
type xferState struct {
	l     *Link
	p     *sim.Proc
	n     int64
	tries int
	k     sim.K

	step     func(*xferState) // what the pending continuation runs
	resumeFn func()           // st.resume, bound once when the state is made
}

// getXfer pops a pooled transfer state (or makes one, binding its
// continuation).
func (l *Link) getXfer(p *sim.Proc, n int64, k sim.K) *xferState {
	var st *xferState
	if ln := len(l.pool); ln > 0 {
		st = l.pool[ln-1]
		l.pool = l.pool[:ln-1]
	} else {
		st = &xferState{l: l}
		st.resumeFn = st.resume //wlint:allow hotalloc once per state made; the pool reuses it for every transfer
		l.xfersMade++
	}
	st.p, st.n, st.tries, st.k = p, n, 0, k
	return st
}

// putXfer returns a delivered transfer state to the pool, dropping the step.
func (l *Link) putXfer(st *xferState) {
	st.p = nil
	st.step = nil
	st.k = nil
	l.pool = append(l.pool, st)
}

// resume runs the pending step.
func (st *xferState) resume() { st.step(st) }

// then returns the state's one continuation, set to run step.
func (st *xferState) then(step func(*xferState)) func() {
	st.step = step
	return st.resumeFn
}

// NewLink returns a link attached to the environment.
func NewLink(env *sim.Env, cfg Config) *Link {
	return &Link{cfg: cfg, wire: sim.NewResource(env, 1)}
}

// SetFaulter attaches a fault source to the link. Call before the measured
// run; a nil Faulter restores the reliable link.
func (l *Link) SetFaulter(f Faulter, cfg FaultConfig) {
	l.faulter = f
	l.fcfg = cfg
}

// Transfer sends a message of n bytes, holding the calling process for the
// latency and for exclusive use of the wire during serialization, then runs
// k (continuation style: the call returns before the transfer completes).
//
// On a faulty link a message may be lost after serialization: the sender
// holds for the retransmission timeout and sends again, so the wire carries
// the duplicate traffic real retransmission storms generate. Delay faults
// stretch the post-wire delivery latency.
func (l *Link) Transfer(p *sim.Proc, n int64, k sim.K) {
	if n < 0 {
		n = 0
	}
	l.getXfer(p, n, k).attempt()
}

// attempt is one (re)transmission of the message.
func (st *xferState) attempt() {
	l := st.l
	l.messages++
	l.bytes += st.n
	l.wire.Acquire(st.p, st.then((*xferState).onWire))
}

// onWire serializes the message onto the held wire.
func (st *xferState) onWire() {
	st.p.Hold(float64(st.n)*st.l.cfg.PerByte, st.then((*xferState).serialized))
}

// serialized releases the wire and decides the message's fate: delivered,
// delayed, or lost (timeout then retransmission).
func (st *xferState) serialized() {
	l := st.l
	l.wire.Release()
	delay := 0.0
	if l.faulter != nil {
		drop, d := l.faulter.Message(st.p.Now())
		if drop {
			l.drops++
			if l.fcfg.Hard || st.tries < l.fcfg.MaxRetries {
				l.retransmits++
				timeo := l.fcfg.timeoutFor(st.tries)
				l.blockedTime += timeo
				st.p.Hold(timeo, st.then((*xferState).retry))
				return
			}
			// Soft mount, retry budget exhausted: count the give-up
			// but deliver anyway, so the workload degrades rather
			// than wedges.
			l.giveUps++
		}
		delay = d
	}
	st.p.Hold(l.cfg.LatencyPerMessage+delay, st.then((*xferState).delivered))
}

// retry re-sends the message after the sender's timeout.
func (st *xferState) retry() {
	st.tries++
	st.attempt()
}

// delivered recycles the state and hands the message to the receiver.
func (st *xferState) delivered() {
	k := st.k
	st.l.putXfer(st)
	k()
}

// InFlight returns how many transfer states the link made are not on its
// free list: transfers in flight, or states never recycled.
func (l *Link) InFlight() int { return l.xfersMade - len(l.pool) }

// Messages returns the number of messages transferred, retransmissions
// included.
func (l *Link) Messages() int64 { return l.messages }

// Bytes returns the number of payload bytes transferred, retransmitted
// payloads included.
func (l *Link) Bytes() int64 { return l.bytes }

// Drops returns the number of messages lost in transit.
func (l *Link) Drops() int64 { return l.drops }

// Retransmits returns the number of retransmissions performed.
func (l *Link) Retransmits() int64 { return l.retransmits }

// GiveUps returns the number of messages a soft-mounted sender stopped
// retrying (always zero under hard-mount semantics).
func (l *Link) GiveUps() int64 { return l.giveUps }

// BlockedTime returns the total time senders spent holding for
// retransmission timeouts, µs. Overlapping waits from different senders
// each count in full.
func (l *Link) BlockedTime() float64 { return l.blockedTime }

// Utilization returns the time-averaged utilization of the wire.
func (l *Link) Utilization() float64 { return l.wire.Utilization() }
