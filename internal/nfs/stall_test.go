package nfs

import (
	"testing"

	"uswg/internal/disk"
	"uswg/internal/netsim"
	"uswg/internal/sim"
	"uswg/internal/vfs"
)

// onceStaller stalls the first call by D and leaves the rest healthy.
type onceStaller struct {
	D    float64
	used bool
}

func (s *onceStaller) Stall(float64) float64 {
	if s.used {
		return 0
	}
	s.used = true
	return s.D
}

// getattr returns a call that stats the root through a client of srv whose
// own costs are zero (no CPU, an instant wire, no attribute cache), so each
// call is one getattr RPC whose time is all the server's, then runs k.
func getattr(t *testing.T, env *sim.Env, srv *Server) func(p *sim.Proc, k func()) {
	c := newClient(srv, netsim.NewLink(env, netsim.Config{}), ClientConfig{WireBlock: 8192}, vfs.NewMemFS())
	return func(p *sim.Proc, k func()) {
		c.Stat(p, "/", func(_ vfs.FileInfo, err error) {
			if err != nil {
				t.Error(err)
			}
			k()
		})
	}
}

// TestStallQueuesOtherClients verifies that a stalled nfsd holds the daemon
// slot: with one daemon, a second concurrent call finishes after the first
// call's stall, not alongside it.
func TestStallQueuesOtherClients(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.NFSDs = 1
	cfg.Disk = disk.Default()
	cfg.CPUPerCall = 100

	run := func(stall float64) (first, second sim.Time) {
		env := sim.NewEnv()
		srv, err := NewServer(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetStaller(&onceStaller{D: stall})
		stat := getattr(t, env, srv)
		var done [2]sim.Time
		for i := 0; i < 2; i++ {
			i := i
			env.Start("c", func(p *sim.Proc, fin sim.K) {
				stat(p, func() {
					done[i] = p.Now()
					fin()
				})
			})
		}
		if err := env.Run(sim.Forever); err != nil {
			t.Fatal(err)
		}
		return done[0], done[1]
	}

	first, second := run(5000)
	if first != 5100 {
		t.Errorf("stalled call finished at %v, want 5100", first)
	}
	if second != 5200 {
		t.Errorf("queued call finished at %v, want 5200 (behind the stall)", second)
	}

	cleanFirst, cleanSecond := run(0)
	if cleanFirst != 100 || cleanSecond != 200 {
		t.Errorf("healthy calls finished at %v/%v, want 100/200", cleanFirst, cleanSecond)
	}
}

// TestStallCounters verifies stall accounting.
func TestStallCounters(t *testing.T) {
	env := sim.NewEnv()
	srv, err := NewServer(env, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetStaller(&onceStaller{D: 1234})
	stat := getattr(t, env, srv)
	env.Start("c", func(p *sim.Proc, fin sim.K) {
		stat(p, func() {
			stat(p, fin)
		})
	})
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if srv.Stalls() != 1 || srv.StallTime() != 1234 {
		t.Errorf("stalls/time = %d/%v, want 1/1234", srv.Stalls(), srv.StallTime())
	}
}
