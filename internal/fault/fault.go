// Package fault is the deterministic, seeded fault-plan engine: it decides,
// call by call, whether a fault fires at any of the workload generator's
// suspendable layers — the vfs file systems (package vfs via the FS wrapper),
// the host file system adapter (package realfs via os-level hooks), the
// shared network link (netsim.Link's Faulter hook, modelling NFS soft/hard
// mount retry), and the simulated NFS server (the Staller hook, modelling a
// stalled nfsd).
//
// A Plan composes Rules. Each rule selects the operations it applies to,
// fires with a per-call probability inside an optional virtual-time window,
// and injects one of: an errno-style error (ENOSPC, EINTR, EIO), a latency
// spike, a partial (short) transfer, or a dropped network message. Rules can
// be transient (MaxFires bounds total firings) or sticky (once fired, every
// later matching call fires too — a disk that stays full).
//
// Determinism contract: every rule draws from its own rng stream derived
// from the engine seed and the rule's name (rng.Derive). Under the DES
// kernel the whole simulation is single-threaded and calls arrive in
// deterministic order, so a run's fault sequence is a pure function of
// (seed, plan) — experiment output stays byte-identical at any sweep
// parallelism, because parallel sweep points construct independent engines.
//
// In the DES→workload→trace→analysis pipeline faults are a cross-cutting
// layer at the DES/workload boundary: they perturb operations in flight,
// and the trace records the damage for the fault5.x analyses.
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"uswg/internal/rng"
	"uswg/internal/vfs"
)

// Injected error kinds, errno-style.
const (
	ENOSPC = "enospc" // no space left on device
	EINTR  = "eintr"  // interrupted system call
	EIO    = "eio"    // input/output error
)

// Operation labels beyond the vfs system calls. The FS wrapper passes vfs op
// names ("open", "read", ...); the network and server attach points ask for
// these labels explicitly, and the realfs hooks prefix host syscalls with
// "os." ("os.write", ...). The "*" wildcard matches any vfs-level op (plain
// and "os."-prefixed) but never the net/rpc labels — a plan that degrades
// every file operation should not silently also drop packets.
const (
	OpNet = "net" // one message on the shared link
	OpRPC = "rpc" // one RPC arriving at the NFS server
)

var vfsOps = map[string]bool{
	"mkdir": true, "create": true, "open": true, "read": true, "write": true,
	"seek": true, "close": true, "unlink": true, "stat": true, "readdir": true,
}

// ErrInjected marks every error produced by the engine, so tests and
// analyzers can tell injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Burst makes a rule's firing correlated in time: a two-state
// Gilbert-Elliott chain (good wire / bad wire) advanced once per matching
// call. In the good state the rule never fires; in the bad state it fires
// with probability Loss (default 1). Mean sojourn lengths are 1/PEnter calls
// of clean wire and 1/PExit calls of burst, so losses arrive in clumps the
// way interference and congestion produce them — unlike an independent
// per-call Prob, which spreads the same loss rate evenly.
type Burst struct {
	// PEnter is the per-call probability of the good→bad transition.
	PEnter float64 `json:"p_enter"`
	// PExit is the per-call probability of the bad→good transition.
	PExit float64 `json:"p_exit"`
	// Loss is the firing probability while in the bad state (0 means 1:
	// every call inside a burst is hit).
	Loss float64 `json:"loss,omitempty"`
}

// Validate checks the burst parameters.
func (b *Burst) Validate(rule string) error {
	if b.PEnter <= 0 || b.PEnter > 1 {
		return fmt.Errorf("fault: rule %q: burst p_enter %v out of (0, 1]", rule, b.PEnter)
	}
	if b.PExit <= 0 || b.PExit > 1 {
		return fmt.Errorf("fault: rule %q: burst p_exit %v out of (0, 1]", rule, b.PExit)
	}
	if b.Loss < 0 || b.Loss > 1 {
		return fmt.Errorf("fault: rule %q: burst loss %v out of [0, 1]", rule, b.Loss)
	}
	return nil
}

// Rule is one composable fault source inside a Plan.
type Rule struct {
	// Name labels the rule and seeds its private rng stream; names must be
	// unique within a plan.
	Name string `json:"name"`
	// Ops lists the operation labels the rule applies to: vfs op names,
	// "os."-prefixed host syscalls, OpNet, OpRPC, or "*" (any vfs-level op).
	Ops []string `json:"ops"`
	// Prob is the per-call firing probability in [0, 1]. Mutually exclusive
	// with Burst, which replaces the independent draw with a correlated one.
	Prob float64 `json:"prob"`

	// Burst replaces the independent per-call Prob draw with a
	// Gilbert-Elliott good/bad chain: firings arrive in correlated bursts
	// (see Burst). Nil keeps the independent draw.
	Burst *Burst `json:"burst,omitempty"`

	// Err injects an errno-style error when the rule fires: ENOSPC, EINTR,
	// or EIO. Empty means no error (a pure latency/partial/drop rule).
	Err string `json:"err,omitempty"`
	// Latency is charged to the caller whenever the rule fires, µs — the
	// cost of a failed round trip, a latency spike on a slow call, the
	// stall length at the server, or the extra delay of a slow message.
	Latency float64 `json:"latency_us,omitempty"`
	// Partial, in (0, 1), shortens a data transfer to that fraction of the
	// requested bytes (a short write, per UNIX semantics without error).
	Partial float64 `json:"partial,omitempty"`
	// Drop marks a fired OpNet rule as a lost message: the sender times out
	// and retransmits (netsim charges the timeout and retries).
	Drop bool `json:"drop,omitempty"`

	// Sticky makes the rule permanent once it first fires: every later
	// matching call fires too (ENOSPC that does not go away). Transient
	// faults leave Sticky false; a sticky rule cannot set MaxFires.
	Sticky bool `json:"sticky,omitempty"`
	// MaxFires bounds the total number of firings (0 means unlimited); a
	// bounded rule models a transient glitch that clears.
	MaxFires int `json:"max_fires,omitempty"`
	// After activates the rule only at or after this virtual time, µs.
	After float64 `json:"after_us,omitempty"`
	// Until deactivates the rule at or after this virtual time, µs
	// (0 means never). A sticky rule stays tripped past Until.
	Until float64 `json:"until_us,omitempty"`
}

// matches reports whether the rule applies to the operation label.
func (r *Rule) matches(op string) bool {
	for _, o := range r.Ops {
		if o == op {
			return true
		}
		if o == "*" && op != OpNet && op != OpRPC {
			return true
		}
	}
	return false
}

// Validate checks the rule.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return errors.New("fault: rule with empty name")
	}
	if len(r.Ops) == 0 {
		return fmt.Errorf("fault: rule %q selects no ops", r.Name)
	}
	for _, o := range r.Ops {
		switch {
		case o == "*" || o == OpNet || o == OpRPC || vfsOps[o]:
		case len(o) > 3 && o[:3] == "os." && vfsOps[o[3:]]:
		default:
			return fmt.Errorf("fault: rule %q: unknown op %q", r.Name, o)
		}
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("fault: rule %q: prob %v out of [0, 1]", r.Name, r.Prob)
	}
	if r.Burst != nil {
		if r.Prob != 0 {
			return fmt.Errorf("fault: rule %q: prob and burst are mutually exclusive", r.Name)
		}
		if r.Sticky {
			return fmt.Errorf("fault: rule %q: sticky and burst are mutually exclusive", r.Name)
		}
		if err := r.Burst.Validate(r.Name); err != nil {
			return err
		}
	}
	switch r.Err {
	case "", ENOSPC, EINTR, EIO:
	default:
		return fmt.Errorf("fault: rule %q: unknown error kind %q", r.Name, r.Err)
	}
	if r.Latency < 0 {
		return fmt.Errorf("fault: rule %q: negative latency %v", r.Name, r.Latency)
	}
	if r.Partial < 0 || r.Partial >= 1 {
		return fmt.Errorf("fault: rule %q: partial %v out of [0, 1)", r.Name, r.Partial)
	}
	if r.Partial > 0 && r.Err != "" {
		return fmt.Errorf("fault: rule %q: partial and err are mutually exclusive", r.Name)
	}
	if r.MaxFires < 0 {
		return fmt.Errorf("fault: rule %q: negative max_fires %d", r.Name, r.MaxFires)
	}
	if r.MaxFires > 0 && r.Sticky {
		// A tripped sticky rule fires on every later call, so no bound on
		// its firings could hold.
		return fmt.Errorf("fault: rule %q: sticky and max_fires are mutually exclusive", r.Name)
	}
	if r.Until != 0 && r.Until <= r.After {
		return fmt.Errorf("fault: rule %q: window [%v, %v) is empty", r.Name, r.After, r.Until)
	}
	return nil
}

// Outage is one server-down window: from Start until End the server answers
// nothing — every message on the link is dropped deterministically (no rng
// draw), clients time out and retransmit — and at End the server restarts
// with all daemon state (its block cache) gone.
type Outage struct {
	// Start is the crash time, virtual µs.
	Start float64 `json:"start_us"`
	// End is the restart time, virtual µs; must exceed Start.
	End float64 `json:"end_us"`
}

// Validate checks the outage window.
func (o *Outage) Validate() error {
	if o.Start < 0 {
		return fmt.Errorf("fault: outage start_us %v negative", o.Start)
	}
	if o.End <= o.Start {
		return fmt.Errorf("fault: outage window [%v, %v) is empty", o.Start, o.End)
	}
	return nil
}

// Plan is a named, composable set of fault rules plus the network retry
// parameters the link attach point needs.
type Plan struct {
	// Name labels the plan and salts every rule's rng stream.
	Name string `json:"name"`
	// Rules are evaluated in order; the first rule that fires decides the
	// call's outcome.
	Rules []Rule `json:"rules"`

	// ServerOutages lists server-down windows: complete, deterministic
	// message loss while each window is open, followed by a cold-cache
	// server restart at its end. Windows are checked before the rules.
	ServerOutages []Outage `json:"server_outages,omitempty"`

	// NetTimeout is the sender's retransmission timeout for a dropped
	// message, µs (0 means DefaultNetTimeout — NFSv2's 0.7 s initial timeo).
	NetTimeout float64 `json:"net_timeout_us,omitempty"`
	// NetRetries bounds retransmissions per message (0 means
	// DefaultNetRetries — the classic soft-mount retrans=5). After the
	// budget the message is delivered anyway, so a hard-mounted workload
	// degrades rather than wedges. Ignored under NetHard.
	NetRetries int `json:"net_retries,omitempty"`
	// NetBackoff grows the retransmission timeout geometrically per retry
	// (capped exponential backoff; 0 or 1 keeps it constant).
	NetBackoff float64 `json:"net_backoff,omitempty"`
	// NetMaxTimeout caps the backed-off timeout, µs (0 means uncapped —
	// with NetBackoff set, prefer a cap: 60 s is the classic maximum timeo).
	NetMaxTimeout float64 `json:"net_max_timeout_us,omitempty"`
	// NetHard selects hard-mount semantics: retry forever, never give up.
	NetHard bool `json:"net_hard,omitempty"`
}

// Network retry defaults (NFSv2 mount defaults: timeo=7 tenths, retrans=5).
const (
	DefaultNetTimeout = 700_000 // µs
	DefaultNetRetries = 5
)

// Timeout returns the retransmission timeout with its default applied.
func (p *Plan) Timeout() float64 {
	if p.NetTimeout > 0 {
		return p.NetTimeout
	}
	return DefaultNetTimeout
}

// Retries returns the retransmission budget with its default applied.
func (p *Plan) Retries() int {
	if p.NetRetries > 0 {
		return p.NetRetries
	}
	return DefaultNetRetries
}

// Validate checks the plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if len(p.Rules) == 0 && len(p.ServerOutages) == 0 {
		return errors.New("fault: plan has no rules and no server outages")
	}
	for i := range p.ServerOutages {
		if err := p.ServerOutages[i].Validate(); err != nil {
			return err
		}
	}
	names := make(map[string]bool, len(p.Rules))
	for i := range p.Rules {
		r := &p.Rules[i]
		if err := r.Validate(); err != nil {
			return err
		}
		if names[r.Name] {
			return fmt.Errorf("fault: duplicate rule name %q", r.Name)
		}
		names[r.Name] = true
	}
	if p.NetTimeout < 0 {
		return fmt.Errorf("fault: negative net_timeout_us %v", p.NetTimeout)
	}
	if p.NetRetries < 0 {
		return fmt.Errorf("fault: negative net_retries %d", p.NetRetries)
	}
	if p.NetBackoff != 0 && (p.NetBackoff < 1 || math.IsNaN(p.NetBackoff)) {
		return fmt.Errorf("fault: net_backoff %v must be >= 1 (0 disables backoff)", p.NetBackoff)
	}
	if p.NetMaxTimeout < 0 {
		return fmt.Errorf("fault: negative net_max_timeout_us %v", p.NetMaxTimeout)
	}
	if p.NetMaxTimeout > 0 && p.NetMaxTimeout < p.Timeout() {
		return fmt.Errorf("fault: net_max_timeout_us %v below the initial timeout %v", p.NetMaxTimeout, p.Timeout())
	}
	return nil
}

// HasFSRules reports whether any rule can fire at the vfs layer (plain op
// names or the wildcard) — whether wrapping a file system in FS is useful.
func (p *Plan) HasFSRules() bool {
	for i := range p.Rules {
		for _, o := range p.Rules[i].Ops {
			if o == "*" || vfsOps[o] {
				return true
			}
		}
	}
	return false
}

// Outcome is the engine's verdict for one call that fired a rule.
type Outcome struct {
	// Rule is the name of the rule that fired.
	Rule string
	// Kind is the rule's error kind (ENOSPC, EINTR, EIO, or empty).
	Kind string
	// Err is the injected error (nil for latency/partial/drop outcomes).
	Err error
	// Latency is the extra time to charge, µs.
	Latency float64
	// Partial, when > 0, is the fraction of the transfer to complete.
	Partial float64
	// Drop marks a lost network message.
	Drop bool
}

// ruleState is a rule plus its runtime state: a private rng stream and the
// firing counters that implement transient and sticky behaviour.
type ruleState struct {
	Rule
	r       *rand.Rand
	fires   int64
	tripped bool // sticky rule has fired at least once
	bad     bool // burst rule's Gilbert-Elliott chain is in the bad state
}

// burstFires advances the rule's Gilbert-Elliott chain one matching call and
// reports whether the call fires. The chain transitions first, then the
// (possibly new) state decides: good never fires, bad fires with Loss.
func (rs *ruleState) burstFires() bool {
	b := rs.Burst
	if rs.bad {
		if rs.r.Float64() < b.PExit {
			rs.bad = false
		}
	} else if rs.r.Float64() < b.PEnter {
		rs.bad = true
	}
	if !rs.bad {
		return false
	}
	if b.Loss > 0 && b.Loss < 1 {
		return rs.r.Float64() < b.Loss
	}
	return true
}

// active reports whether the rule can fire at virtual time now.
func (rs *ruleState) active(now float64) bool {
	if rs.tripped {
		return true // sticky rules stay tripped past their window
	}
	if now < rs.After {
		return false
	}
	if rs.Until > 0 && now >= rs.Until {
		return false
	}
	if rs.MaxFires > 0 && rs.fires >= int64(rs.MaxFires) {
		return false
	}
	return true
}

// Engine evaluates a Plan call by call. One engine serves every attach point
// of one generator run; construct a fresh engine (same seed, same plan) to
// reproduce a run exactly.
type Engine struct {
	plan  *Plan
	rules []*ruleState

	// mu guards Eval. Under the DES kernel the whole run is single-threaded
	// and the lock is uncontended; the wall-clock runner drives real file
	// systems from one goroutine per user, where the lock keeps counters
	// and rng streams coherent (though cross-user firing order — and with
	// it exact reproducibility — is the host scheduler's, not ours).
	mu          sync.Mutex
	calls       int64
	injected    int64
	osStart     time.Time // zero until the first host-level evaluation
	osPartial   float64   // partial fraction pending between OSBefore and OSChunk
	outageDrops int64     // messages lost to server outage windows
}

// OutageDrops returns the number of messages lost inside server outage
// windows (separate from rule-driven drops): 0 for a nil engine, a healthy
// run's.
func (e *Engine) OutageDrops() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.outageDrops
}

// NewEngine compiles a plan into an engine. Each rule's stream is derived
// from the seed, the plan name, and the rule name, so renaming a rule — not
// just reordering — is what changes its draws.
func NewEngine(plan *Plan, seed uint64) (*Engine, error) {
	if plan == nil {
		return nil, errors.New("fault: nil plan")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{plan: plan}
	for i := range plan.Rules {
		r := plan.Rules[i]
		e.rules = append(e.rules, &ruleState{
			Rule: r,
			r:    rng.Derive(seed, plan.Name+"/"+r.Name),
		})
	}
	return e, nil
}

// errFor maps an error kind to its shared errno-style error.
func errFor(kind string) error {
	switch kind {
	case ENOSPC:
		return vfs.ErrNoSpace
	case EINTR:
		return vfs.ErrInterrupted
	case EIO:
		return vfs.ErrIO
	default:
		return vfs.ErrInvalid
	}
}

// Eval decides one call's fate: the first matching, active rule that fires
// wins. The second return is false when the call passes through clean.
func (e *Engine) Eval(op string, now float64) (Outcome, bool) {
	return e.eval(op, now, false)
}

// EvalLatencyOnly is Eval restricted to pure latency rules (no error, no
// partial, no drop). Attach points that cannot deliver an error — the FS
// wrapper's Close — use it so error rules neither fire invisibly nor have
// their streams, fire counts, or sticky/MaxFires state consumed by calls
// they cannot affect.
func (e *Engine) EvalLatencyOnly(op string, now float64) (Outcome, bool) {
	return e.eval(op, now, true)
}

func (e *Engine) eval(op string, now float64, latencyOnly bool) (Outcome, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.calls++
	for _, rs := range e.rules {
		if latencyOnly && (rs.Err != "" || rs.Partial > 0 || rs.Drop) {
			continue
		}
		if !rs.matches(op) || !rs.active(now) {
			continue
		}
		if !rs.tripped {
			if rs.Burst != nil {
				if !rs.burstFires() {
					continue
				}
			} else if rs.Prob <= 0 || rs.r.Float64() >= rs.Prob {
				continue
			}
		}
		rs.fires++
		if rs.Sticky {
			rs.tripped = true
		}
		e.injected++
		out := Outcome{
			Rule:    rs.Name,
			Kind:    rs.Err,
			Latency: rs.Latency,
			Partial: rs.Partial,
			Drop:    rs.Drop,
		}
		if rs.Err != "" {
			out.Err = fmt.Errorf("%w: %s (%s): %w", ErrInjected, op, rs.Name, errFor(rs.Err))
		}
		return out, true
	}
	return Outcome{}, false
}

// Calls returns the number of calls evaluated.
func (e *Engine) Calls() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls
}

// Injected returns the number of calls on which a rule fired.
func (e *Engine) Injected() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.injected
}

// FiresByRule returns per-rule firing counts in plan order.
func (e *Engine) FiresByRule() []struct {
	Rule  string
	Fires int64
} {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]struct {
		Rule  string
		Fires int64
	}, 0, len(e.rules))
	for _, rs := range e.rules {
		out = append(out, struct {
			Rule  string
			Fires int64
		}{rs.Name, rs.fires})
	}
	return out
}

// ---------------------------------------------------------- attach adapters

// Message implements netsim's Faulter hook: it reports whether the message
// is lost (sender times out and retransmits) and any extra delivery delay.
// Server outage windows are checked first and drop deterministically — a
// dead server loses every message without consuming any rule's rng stream,
// so adding an outage leaves the rules' draw sequences untouched.
func (e *Engine) Message(now float64) (drop bool, delay float64) {
	for i := range e.plan.ServerOutages {
		o := &e.plan.ServerOutages[i]
		if now >= o.Start && now < o.End {
			e.mu.Lock()
			e.outageDrops++
			e.mu.Unlock()
			return true, 0
		}
	}
	out, fired := e.Eval(OpNet, now)
	if !fired {
		return false, 0
	}
	if out.Drop {
		return true, 0
	}
	return false, out.Latency
}

// Stall implements the nfs server's Staller hook: extra µs the serving nfsd
// holds this call (queueing behind a stalled daemon is what degrades the
// other clients).
func (e *Engine) Stall(now float64) float64 {
	out, fired := e.Eval(OpRPC, now)
	if !fired {
		return 0
	}
	return out.Latency
}
