package fault

import (
	"errors"
	"testing"

	"uswg/internal/vfs"
)

func mustEngine(t *testing.T, plan *Plan, seed uint64) *Engine {
	t.Helper()
	e, err := NewEngine(plan, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{Name: "empty"},
		{Name: "noops", Rules: []Rule{{Name: "r", Prob: 0.5}}},
		{Name: "badop", Rules: []Rule{{Name: "r", Ops: []string{"frobnicate"}, Prob: 0.5}}},
		{Name: "badprob", Rules: []Rule{{Name: "r", Ops: []string{"read"}, Prob: 1.5}}},
		{Name: "badkind", Rules: []Rule{{Name: "r", Ops: []string{"read"}, Prob: 0.5, Err: "enoent"}}},
		{Name: "badpartial", Rules: []Rule{{Name: "r", Ops: []string{"write"}, Prob: 0.5, Partial: 1}}},
		{Name: "partialerr", Rules: []Rule{{Name: "r", Ops: []string{"write"}, Prob: 0.5, Partial: 0.5, Err: EIO}}},
		{Name: "dupname", Rules: []Rule{
			{Name: "r", Ops: []string{"read"}, Prob: 0.5},
			{Name: "r", Ops: []string{"write"}, Prob: 0.5},
		}},
		{Name: "badwindow", Rules: []Rule{{Name: "r", Ops: []string{"read"}, Prob: 0.5, After: 10, Until: 10}}},
		// A tripped sticky rule fires on every call, past any max_fires
		// (found by FuzzPlan).
		{Name: "stickymax", Rules: []Rule{{Name: "r", Ops: []string{"write"}, Prob: 1, Err: ENOSPC, Sticky: true, MaxFires: 1}}},
	}
	for _, p := range bad {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("plan %q: want validation error", p.Name)
		}
	}
	good := Plan{Name: "ok", Rules: []Rule{
		{Name: "a", Ops: []string{"read", "write"}, Prob: 0.1, Err: ENOSPC},
		{Name: "b", Ops: []string{OpNet}, Prob: 0.01, Drop: true},
		{Name: "c", Ops: []string{OpRPC}, Prob: 0.01, Latency: 1e4},
		{Name: "d", Ops: []string{"os.write"}, Prob: 0.2, Err: EINTR},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestDeterministicStreams locks in the determinism contract: two engines
// built from the same (plan, seed) deliver the identical outcome sequence.
func TestDeterministicStreams(t *testing.T) {
	plan := &Plan{Name: "det", Rules: []Rule{
		{Name: "eio", Ops: []string{"read"}, Prob: 0.3, Err: EIO},
		{Name: "spike", Ops: []string{"write"}, Prob: 0.3, Latency: 500},
	}}
	a, b := mustEngine(t, plan, 99), mustEngine(t, plan, 99)
	ops := []string{"read", "write", "read", "read", "write", "read", "write", "write"}
	for i := 0; i < 500; i++ {
		op := ops[i%len(ops)]
		oa, fa := a.Eval(op, float64(i))
		ob, fb := b.Eval(op, float64(i))
		sameErr := (oa.Err == nil) == (ob.Err == nil) &&
			(oa.Err == nil || oa.Err.Error() == ob.Err.Error())
		oa.Err, ob.Err = nil, nil
		if fa != fb || oa != ob || !sameErr {
			t.Fatalf("call %d diverged: (%+v,%v) vs (%+v,%v)", i, oa, fa, ob, fb)
		}
	}
	if a.Injected() == 0 {
		t.Fatal("no faults fired at 30% over 500 calls")
	}
	if a.Injected() != b.Injected() || a.Calls() != b.Calls() {
		t.Fatalf("counters diverged: %d/%d vs %d/%d", a.Injected(), a.Calls(), b.Injected(), b.Calls())
	}
}

// TestRuleStreamsIndependentOfOrder: a rule's draws come from its own named
// stream, so adding an unrelated rule does not perturb its sequence.
func TestRuleStreamsIndependentOfOrder(t *testing.T) {
	solo := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "eio", Ops: []string{"read"}, Prob: 0.2, Err: EIO},
	}}, 7)
	withPeer := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "other", Ops: []string{"mkdir"}, Prob: 0.9, Err: ENOSPC},
		{Name: "eio", Ops: []string{"read"}, Prob: 0.2, Err: EIO},
	}}, 7)
	for i := 0; i < 300; i++ {
		_, fa := solo.Eval("read", 0)
		_, fb := withPeer.Eval("read", 0)
		if fa != fb {
			t.Fatalf("read call %d: solo fired=%v, with peer fired=%v", i, fa, fb)
		}
	}
}

func TestStickyTripsPermanently(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "full", Ops: []string{"write"}, Prob: 1, Err: ENOSPC, Sticky: true, After: 100, Until: 200},
	}}, 1)
	if _, fired := e.Eval("write", 50); fired {
		t.Fatal("fired before its window")
	}
	if _, fired := e.Eval("write", 150); !fired {
		t.Fatal("did not fire inside its window")
	}
	// Sticky: stays tripped even past Until.
	if _, fired := e.Eval("write", 300); !fired {
		t.Fatal("sticky rule released after its window")
	}
}

func TestMaxFiresBoundsTransients(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "glitch", Ops: []string{"read"}, Prob: 1, Err: EIO, MaxFires: 3},
	}}, 1)
	fires := 0
	for i := 0; i < 10; i++ {
		if _, fired := e.Eval("read", 0); fired {
			fires++
		}
	}
	if fires != 3 {
		t.Fatalf("transient fired %d times, want exactly 3", fires)
	}
}

func TestWildcardSkipsNetAndRPC(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "any", Ops: []string{"*"}, Prob: 1, Err: EIO},
	}}, 1)
	if _, fired := e.Eval("readdir", 0); !fired {
		t.Error("wildcard did not match a vfs op")
	}
	if _, fired := e.Eval("os.write", 0); !fired {
		t.Error("wildcard did not match a host op")
	}
	if _, fired := e.Eval(OpNet, 0); fired {
		t.Error("wildcard matched the net label")
	}
	if _, fired := e.Eval(OpRPC, 0); fired {
		t.Error("wildcard matched the rpc label")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "first", Ops: []string{"read"}, Prob: 1, Err: EIO},
		{Name: "second", Ops: []string{"read"}, Prob: 1, Err: ENOSPC},
	}}, 1)
	out, fired := e.Eval("read", 0)
	if !fired || out.Rule != "first" {
		t.Fatalf("outcome %+v, want rule 'first'", out)
	}
	if !errors.Is(out.Err, vfs.ErrIO) || !errors.Is(out.Err, ErrInjected) {
		t.Fatalf("error %v, want injected EIO", out.Err)
	}
}

// ----------------------------------------------------------------- FS wrapper

func memFSWithFile(t *testing.T) (*vfs.MemFS, vfs.FD) {
	t.Helper()
	m := vfs.NewMemFS()
	ctx := &vfs.ManualClock{}
	sfs := vfs.Sync{FS: m}
	fd, err := sfs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sfs.Write(ctx, fd, 4096); err != nil {
		t.Fatal(err)
	}
	if err := sfs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	fd, err = sfs.Open(ctx, "/f", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	return m, fd
}

func TestFSErrorChargesLatency(t *testing.T) {
	inner, fd := memFSWithFile(t)
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "eio", Ops: []string{"read"}, Prob: 1, Err: EIO, Latency: 250},
	}}, 1)
	ffs := vfs.Sync{FS: NewFS(inner, e)}
	ctx := &vfs.ManualClock{}
	_, err := ffs.Read(ctx, fd, 100)
	if !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("read error %v, want EIO", err)
	}
	if ctx.T != 250 {
		t.Errorf("charged %v µs, want 250", ctx.T)
	}
}

func TestFSPartialWriteIsShortNotFailed(t *testing.T) {
	inner, fd := memFSWithFile(t)
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "short", Ops: []string{"write"}, Prob: 1, Partial: 0.25},
	}}, 1)
	ffs := vfs.Sync{FS: NewFS(inner, e)}
	got, err := ffs.Write(&vfs.ManualClock{}, fd, 1000)
	if err != nil {
		t.Fatalf("short write failed: %v", err)
	}
	if got != 250 {
		t.Errorf("short write transferred %d, want 250", got)
	}
}

func TestFSCloseNeverErrors(t *testing.T) {
	inner, fd := memFSWithFile(t)
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "any", Ops: []string{"*"}, Prob: 1, Err: EIO, Latency: 100},
	}}, 1)
	ffs := vfs.Sync{FS: NewFS(inner, e)}
	ctx := &vfs.ManualClock{}
	if err := ffs.Close(ctx, fd); err != nil {
		t.Fatalf("close failed under an error rule: %v", err)
	}
}

func TestFSLatencySpikeForwards(t *testing.T) {
	inner, fd := memFSWithFile(t)
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "spike", Ops: []string{"read"}, Prob: 1, Latency: 5000},
	}}, 1)
	ffs := vfs.Sync{FS: NewFS(inner, e)}
	ctx := &vfs.ManualClock{}
	got, err := ffs.Read(ctx, fd, 128)
	if err != nil || got != 128 {
		t.Fatalf("spiked read = (%d, %v), want (128, nil)", got, err)
	}
	if ctx.T < 5000 {
		t.Errorf("charged %v µs, want >= 5000", ctx.T)
	}
}

// crashCounter is a file system that models workstation crashes by
// counting them.
type crashCounter struct {
	vfs.FileSystem
	crashes int
}

func (c *crashCounter) Crash() { c.crashes++ }

// TestFSForwardsCrash: the wrapper forwards a crash to a vfs.Crasher exactly
// once, and over a file system that models none (MemFS) it does nothing. A
// crash is not a call: no rule evaluates, even one matching every op.
func TestFSForwardsCrash(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "any", Ops: []string{"*"}, Prob: 1, Err: EIO},
	}}, 1)
	cr := &crashCounter{FileSystem: vfs.NewMemFS()}
	NewFS(cr, e).Crash()
	if cr.crashes != 1 {
		t.Errorf("wrapped Crasher crashed %d times, want 1", cr.crashes)
	}
	m, fd := memFSWithFile(t)
	NewFS(m, e).Crash()
	if n := m.OpenFDs(); n != 1 {
		t.Errorf("crash through the wrapper left %d descriptors open on a MemFS, want its 1", n)
	}
	if got, err := (&vfs.Sync{FS: m}).Read(&vfs.ManualClock{}, fd, 10); got != 10 || err != nil {
		t.Errorf("read after the crash = (%d, %v), want (10, nil)", got, err)
	}
	if e.Calls() != 0 {
		t.Errorf("crashes evaluated %d calls, want 0", e.Calls())
	}
}

// TestCloseDoesNotConsumeErrorRules: Close cannot deliver an error, so an
// error rule matching close must keep its stream and fire budget for calls
// that can.
func TestCloseDoesNotConsumeErrorRules(t *testing.T) {
	inner, fd := memFSWithFile(t)
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "any", Ops: []string{"*"}, Prob: 1, Err: EIO, MaxFires: 1},
	}}, 1)
	ffs := vfs.Sync{FS: NewFS(inner, e)}
	ctx := &vfs.ManualClock{}
	if err := ffs.Close(ctx, fd); err != nil {
		t.Fatalf("close failed: %v", err)
	}
	if e.Injected() != 0 {
		t.Fatalf("close consumed %d firings of an error rule", e.Injected())
	}
	// The single firing is still available for an op that can error.
	fd2, err := ffs.Open(ctx, "/f", vfs.ReadOnly)
	if !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("open = (%v, %v), want the preserved EIO firing", fd2, err)
	}
}

// TestOSHookPairSingleDraw: OSBefore performs the attempt's one engine
// evaluation and hands a partial outcome to OSChunk — two hook calls, one
// draw, one firing.
func TestOSHookPairSingleDraw(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "short", Ops: []string{"os.write"}, Prob: 1, Partial: 0.5, MaxFires: 1},
	}}, 1)
	before, chunk := e.OSBefore(), e.OSChunk()
	if err := before("write", "/f"); err != nil {
		t.Fatalf("partial rule surfaced as an error: %v", err)
	}
	if got := chunk("write", 1000); got != 500 {
		t.Errorf("chunk = %d, want 500 (the stashed partial applied)", got)
	}
	if e.Injected() != 1 {
		t.Errorf("injected = %d, want exactly 1 for the Before/Chunk pair", e.Injected())
	}
	// The fraction is consumed: the next chunk passes through untouched.
	if got := chunk("write", 1000); got != 1000 {
		t.Errorf("second chunk = %d, want 1000 (pending partial cleared)", got)
	}
}

// ------------------------------------------------------------------ adapters

func TestMessageAdapter(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "drop", Ops: []string{OpNet}, Prob: 1, Drop: true},
	}}, 1)
	drop, delay := e.Message(0)
	if !drop || delay != 0 {
		t.Fatalf("Message = (%v, %v), want (true, 0)", drop, delay)
	}

	slow := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "slow", Ops: []string{OpNet}, Prob: 1, Latency: 300},
	}}, 1)
	drop, delay = slow.Message(0)
	if drop || delay != 300 {
		t.Fatalf("Message = (%v, %v), want (false, 300)", drop, delay)
	}
}

func TestStallAdapter(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "stall", Ops: []string{OpRPC}, Prob: 1, Latency: 2e4},
	}}, 1)
	if s := e.Stall(0); s != 2e4 {
		t.Fatalf("Stall = %v, want 20000", s)
	}
	if s := e.Stall(0); s != 2e4 {
		t.Fatalf("second Stall = %v, want 20000", s)
	}
}

func TestFiresByRule(t *testing.T) {
	e := mustEngine(t, &Plan{Name: "p", Rules: []Rule{
		{Name: "a", Ops: []string{"read"}, Prob: 1, Err: EIO, MaxFires: 2},
		{Name: "b", Ops: []string{"write"}, Prob: 1, Err: ENOSPC},
	}}, 1)
	for i := 0; i < 4; i++ {
		e.Eval("read", 0)
		e.Eval("write", 0)
	}
	got := e.FiresByRule()
	if len(got) != 2 || got[0].Rule != "a" || got[0].Fires != 2 || got[1].Rule != "b" || got[1].Fires != 4 {
		t.Fatalf("FiresByRule = %+v", got)
	}
}

func TestBurstValidation(t *testing.T) {
	bad := []Plan{
		{Name: "enter0", Rules: []Rule{{Name: "b", Ops: []string{OpNet}, Drop: true, Burst: &Burst{PEnter: 0, PExit: 0.5}}}},
		{Name: "exit2", Rules: []Rule{{Name: "b", Ops: []string{OpNet}, Drop: true, Burst: &Burst{PEnter: 0.1, PExit: 2}}}},
		{Name: "loss2", Rules: []Rule{{Name: "b", Ops: []string{OpNet}, Drop: true, Burst: &Burst{PEnter: 0.1, PExit: 0.5, Loss: 2}}}},
		{Name: "probtoo", Rules: []Rule{{Name: "b", Ops: []string{OpNet}, Drop: true, Prob: 0.1, Burst: &Burst{PEnter: 0.1, PExit: 0.5}}}},
		{Name: "sticky", Rules: []Rule{{Name: "b", Ops: []string{OpNet}, Drop: true, Sticky: true, Burst: &Burst{PEnter: 0.1, PExit: 0.5}}}},
	}
	for _, p := range bad {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("plan %q: want validation error", p.Name)
		}
	}
	ok := Plan{Name: "ok", Rules: []Rule{
		{Name: "b", Ops: []string{OpNet}, Drop: true, Burst: &Burst{PEnter: 0.01, PExit: 0.2, Loss: 0.9}},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("good burst plan rejected: %v", err)
	}
}

// TestBurstLossesAreCorrelated drives many messages through a burst rule and
// checks the Gilbert-Elliott shape: losses clump into runs whose mean length
// tracks 1/p_exit, far longer than an independent draw at the same overall
// rate would produce.
func TestBurstLossesAreCorrelated(t *testing.T) {
	const n = 200000
	e := mustEngine(t, &Plan{Name: "wire", Rules: []Rule{
		{Name: "burst", Ops: []string{OpNet}, Drop: true, Burst: &Burst{PEnter: 0.005, PExit: 0.1}},
	}}, 42)
	losses := 0
	runs := 0
	inRun := false
	runLen := 0
	var runLens []int
	for i := 0; i < n; i++ {
		drop, _ := e.Message(float64(i))
		if drop {
			losses++
			if !inRun {
				runs++
				inRun = true
				runLen = 0
			}
			runLen++
		} else if inRun {
			inRun = false
			runLens = append(runLens, runLen)
		}
	}
	if losses == 0 || runs == 0 {
		t.Fatalf("no bursts fired (losses=%d runs=%d)", losses, runs)
	}
	var sum int
	for _, l := range runLens {
		sum += l
	}
	mean := float64(sum) / float64(len(runLens))
	// Mean burst length should approximate 1/p_exit = 10 calls; an
	// independent draw at the same loss rate would average ~1.05.
	if mean < 5 || mean > 20 {
		t.Errorf("mean burst length = %.2f, want ~10", mean)
	}
	// Overall loss rate approximates the chain's stationary bad-state
	// share p_enter/(p_enter+p_exit) ≈ 4.8%.
	rate := float64(losses) / n
	if rate < 0.02 || rate > 0.10 {
		t.Errorf("loss rate = %.3f, want ~0.048", rate)
	}
}

// TestBurstDeterministic reproduces the same burst sequence for the same
// (seed, plan).
func TestBurstDeterministic(t *testing.T) {
	mk := func() []bool {
		e := mustEngine(t, &Plan{Name: "wire", Rules: []Rule{
			{Name: "burst", Ops: []string{OpNet}, Drop: true, Burst: &Burst{PEnter: 0.02, PExit: 0.2}},
		}}, 7)
		out := make([]bool, 2000)
		for i := range out {
			out[i], _ = e.Message(float64(i))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("burst sequences diverge at call %d", i)
		}
	}
}

func TestOutageValidation(t *testing.T) {
	bad := []Plan{
		{Name: "backwards", ServerOutages: []Outage{{Start: 10, End: 5}}},
		{Name: "negative", ServerOutages: []Outage{{Start: -1, End: 5}}},
		{Name: "lowcap", ServerOutages: []Outage{{Start: 0, End: 5}},
			NetTimeout: 1000, NetMaxTimeout: 500},
		{Name: "badbackoff", ServerOutages: []Outage{{Start: 0, End: 5}}, NetBackoff: 0.5},
	}
	for _, p := range bad {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("plan %q: want validation error", p.Name)
		}
	}
	// A rules-free plan is valid when it carries outages: the outage is the
	// whole fault.
	good := Plan{Name: "outage-only", ServerOutages: []Outage{{Start: 10, End: 20}},
		NetTimeout: 100, NetBackoff: 2, NetMaxTimeout: 800, NetHard: true}
	if err := good.Validate(); err != nil {
		t.Errorf("outage-only plan rejected: %v", err)
	}
}

func TestOutageWindowSwallowsMessages(t *testing.T) {
	plan := &Plan{Name: "outage", ServerOutages: []Outage{{Start: 100, End: 200}}}
	e := mustEngine(t, plan, 7)
	for _, tc := range []struct {
		now  float64
		drop bool
	}{{99, false}, {100, true}, {150, true}, {199.9, true}, {200, false}, {300, false}} {
		drop, delay := e.Message(tc.now)
		if drop != tc.drop || delay != 0 {
			t.Errorf("Message(%v) = (%v, %v), want (%v, 0)", tc.now, drop, delay, tc.drop)
		}
	}
	if e.OutageDrops() != 3 {
		t.Errorf("outage drops = %d, want 3", e.OutageDrops())
	}
}

// TestOutageDoesNotDisturbRuleStreams: swallowing calls during an outage
// must consume nothing from the rules' rng streams — the post-outage drop
// sequence is identical with or without an outage preceding it.
func TestOutageDoesNotDisturbRuleStreams(t *testing.T) {
	// Same plan name in both engines: rule streams derive from
	// (seed, plan name, rule name), and only the outage set may differ.
	rules := []Rule{{Name: "drop", Ops: []string{OpNet}, Prob: 0.5, Drop: true}}
	withOutage := mustEngine(t, &Plan{Name: "same", Rules: rules,
		ServerOutages: []Outage{{Start: 0, End: 100}}}, 42)
	plain := mustEngine(t, &Plan{Name: "same", Rules: rules}, 42)
	// Burn calls inside the outage window.
	for i := 0; i < 50; i++ {
		if drop, _ := withOutage.Message(50); !drop {
			t.Fatal("message inside the outage must drop")
		}
	}
	// After the window, both engines must agree call for call.
	for i := 0; i < 200; i++ {
		gotDrop, gotDelay := withOutage.Message(200)
		wantDrop, wantDelay := plain.Message(200)
		if gotDrop != wantDrop || gotDelay != wantDelay {
			t.Fatalf("call %d diverges after outage: (%v,%v) vs (%v,%v)",
				i, gotDrop, gotDelay, wantDrop, wantDelay)
		}
	}
}
