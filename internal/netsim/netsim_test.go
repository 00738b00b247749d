package netsim

import (
	"math"
	"testing"

	"uswg/internal/sim"
)

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{LatencyPerMessage: -1}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative latency")
	}
}

func TestTransferTiming(t *testing.T) {
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 100, PerByte: 1})
	var done sim.Time
	env.Start("p", func(p *sim.Proc, fin sim.K) {
		link.Transfer(p, 50, func() {
			done = p.Now()
			fin()
		})
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if done != 150 {
		t.Errorf("transfer of 50 bytes took %v, want 150", done)
	}
	if link.Messages() != 1 || link.Bytes() != 50 {
		t.Errorf("messages/bytes = %d/%d, want 1/50", link.Messages(), link.Bytes())
	}
}

func TestWireContention(t *testing.T) {
	// Two processes sending 100-byte messages at once must serialize on the
	// wire: second finishes its serialization at 200, plus latency.
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 10, PerByte: 1})
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		env.Start("p", func(p *sim.Proc, fin sim.K) {
			link.Transfer(p, 100, func() {
				done[i] = p.Now()
				fin()
			})
		})
	}
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if done[0] != 110 {
		t.Errorf("first transfer done at %v, want 110", done[0])
	}
	if done[1] != 210 {
		t.Errorf("second transfer done at %v, want 210", done[1])
	}
}

func TestLatencyNotSerialized(t *testing.T) {
	// Latency is paid after releasing the wire, so back-to-back small
	// messages from two processes overlap their latencies.
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 1000, PerByte: 0})
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		env.Start("p", func(p *sim.Proc, fin sim.K) {
			link.Transfer(p, 10, func() {
				done[i] = p.Now()
				fin()
			})
		})
	}
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if done[0] != 1000 || done[1] != 1000 {
		t.Errorf("latencies should overlap: %v, want both 1000", done)
	}
}

func TestNegativeBytesClamped(t *testing.T) {
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 5, PerByte: 1})
	var done sim.Time
	env.Start("p", func(p *sim.Proc, fin sim.K) {
		link.Transfer(p, -100, func() {
			done = p.Now()
			fin()
		})
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if done != 5 {
		t.Errorf("negative bytes should cost latency only: %v, want 5", done)
	}
	if link.Bytes() != 0 {
		t.Errorf("Bytes = %d, want 0", link.Bytes())
	}
}

// scriptedFaulter drops the messages whose (1-based) index is listed, and
// delays the rest by Delay.
type scriptedFaulter struct {
	drops map[int]bool
	delay float64
	seen  int
}

func (f *scriptedFaulter) Message(float64) (bool, float64) {
	f.seen++
	if f.drops[f.seen] {
		return true, 0
	}
	return false, f.delay
}

func TestFaultyLinkRetransmits(t *testing.T) {
	// First transmission lost: the sender serializes (50 µs), times out
	// (200 µs), retransmits (50 µs), and pays latency (100 µs) = 400 µs.
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 100, PerByte: 1})
	link.SetFaulter(&scriptedFaulter{drops: map[int]bool{1: true}}, FaultConfig{Timeout: 200, MaxRetries: 3})
	var done sim.Time
	env.Start("p", func(p *sim.Proc, fin sim.K) {
		link.Transfer(p, 50, func() {
			done = p.Now()
			fin()
		})
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if done != 400 {
		t.Errorf("dropped-then-retransmitted transfer took %v, want 400", done)
	}
	if link.Drops() != 1 || link.Retransmits() != 1 {
		t.Errorf("drops/retransmits = %d/%d, want 1/1", link.Drops(), link.Retransmits())
	}
	if link.Messages() != 2 || link.Bytes() != 100 {
		t.Errorf("messages/bytes = %d/%d, want 2/100 (duplicate traffic counted)", link.Messages(), link.Bytes())
	}
}

func TestFaultyLinkRetryBudgetDeliversAnyway(t *testing.T) {
	// Every transmission "lost", but after MaxRetries the message is
	// delivered regardless (hard-mount degradation, not a wedge):
	// 3 serializations + 2 timeouts + 1 latency.
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 100, PerByte: 1})
	always := &scriptedFaulter{drops: map[int]bool{1: true, 2: true, 3: true, 4: true}}
	link.SetFaulter(always, FaultConfig{Timeout: 200, MaxRetries: 2})
	var done sim.Time
	env.Start("p", func(p *sim.Proc, fin sim.K) {
		link.Transfer(p, 50, func() {
			done = p.Now()
			fin()
		})
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if done != 3*50+2*200+100 {
		t.Errorf("exhausted-retry transfer took %v, want %v", done, 3*50+2*200+100)
	}
	if link.Retransmits() != 2 {
		t.Errorf("retransmits = %d, want 2 (budget)", link.Retransmits())
	}
	// Every loss is counted, including the final one whose message was
	// delivered anyway — Drops must agree with the faulter's verdicts.
	if link.Drops() != 3 {
		t.Errorf("drops = %d, want 3 (losses counted even past the budget)", link.Drops())
	}
}

func TestFaultyLinkDelay(t *testing.T) {
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 100, PerByte: 1})
	link.SetFaulter(&scriptedFaulter{delay: 300}, FaultConfig{Timeout: 200, MaxRetries: 3})
	var done sim.Time
	env.Start("p", func(p *sim.Proc, fin sim.K) {
		link.Transfer(p, 50, func() {
			done = p.Now()
			fin()
		})
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if done != 450 {
		t.Errorf("delayed transfer took %v, want 450", done)
	}
	if link.Drops() != 0 {
		t.Errorf("drops = %d, want 0", link.Drops())
	}
}

func TestUtilization(t *testing.T) {
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 0, PerByte: 1})
	env.Start("p", func(p *sim.Proc, fin sim.K) {
		link.Transfer(p, 100, func() {
			p.Hold(100, fin) // idle period
		})
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if got := link.Utilization(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
}

func TestBackoffTimeoutSchedule(t *testing.T) {
	cfg := FaultConfig{Timeout: 100, Backoff: 2, MaxTimeout: 400}
	want := []float64{100, 200, 400, 400, 400}
	for tries, w := range want {
		if got := cfg.timeoutFor(tries); got != w {
			t.Errorf("timeoutFor(%d) = %v, want %v", tries, got, w)
		}
	}
	flat := FaultConfig{Timeout: 100}
	for tries := 0; tries < 4; tries++ {
		if got := flat.timeoutFor(tries); got != 100 {
			t.Errorf("flat timeoutFor(%d) = %v, want 100", tries, got)
		}
	}
}

func TestHardMountNeverGivesUp(t *testing.T) {
	// Five straight losses on a hard mount: the sender backs off
	// 200, 400, 800, 800, 800 µs (x2 capped at 800), retransmits each
	// time, and delivers on the sixth try. No give-ups by construction.
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 100, PerByte: 1})
	script := &scriptedFaulter{drops: map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}}
	link.SetFaulter(script, FaultConfig{Timeout: 200, Backoff: 2, MaxTimeout: 800, Hard: true})
	var done sim.Time
	env.Start("p", func(p *sim.Proc, fin sim.K) {
		link.Transfer(p, 50, func() {
			done = p.Now()
			fin()
		})
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	wantBlocked := 200.0 + 400 + 800 + 800 + 800
	if want := sim.Time(6*50) + sim.Time(wantBlocked) + 100; done != want {
		t.Errorf("hard-mounted transfer took %v, want %v", done, want)
	}
	if link.Retransmits() != 5 || link.GiveUps() != 0 {
		t.Errorf("retransmits/give-ups = %d/%d, want 5/0", link.Retransmits(), link.GiveUps())
	}
	if link.BlockedTime() != wantBlocked {
		t.Errorf("blocked time = %v, want %v", link.BlockedTime(), wantBlocked)
	}
}

func TestSoftMountCountsGiveUps(t *testing.T) {
	env := sim.NewEnv()
	link := NewLink(env, Config{LatencyPerMessage: 100, PerByte: 1})
	always := &scriptedFaulter{drops: map[int]bool{1: true, 2: true, 3: true, 4: true}}
	link.SetFaulter(always, FaultConfig{Timeout: 200, MaxRetries: 2})
	env.Start("p", func(p *sim.Proc, fin sim.K) {
		link.Transfer(p, 50, fin)
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if link.GiveUps() != 1 {
		t.Errorf("give-ups = %d, want 1 (retry budget exhausted once)", link.GiveUps())
	}
}

// TestXferStateCost pins what making a transfer state costs: taken from an
// emptied free list and put back, it allocates the state and its one bound
// continuation.
func TestXferStateCost(t *testing.T) {
	l := NewLink(sim.NewEnv(), DefaultConfig())
	cycle := func() { l.pool = l.pool[:0]; l.putXfer(l.getXfer(nil, 0, nil)) }
	if n := testing.AllocsPerRun(100, cycle); n != 2 {
		t.Errorf("getXfer on an empty free list: %v allocations, want 2", n)
	}
}
