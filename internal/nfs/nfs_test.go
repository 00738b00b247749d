package nfs

import (
	"errors"
	"fmt"
	"testing"

	"uswg/internal/disk"
	"uswg/internal/netsim"
	"uswg/internal/sim"
	"uswg/internal/vfs"
)

func testServerConfig() ServerConfig {
	return ServerConfig{
		NFSDs:        1,
		Disk:         disk.Model{SeekTime: 1000, HalfRotation: 500, TransferPerBlock: 100, BlockSize: 4096},
		CacheBlocks:  8,
		CPUPerCall:   20,
		CPUPerBlock:  2,
		WriteThrough: true,
	}
}

func testClientConfig() ClientConfig {
	return ClientConfig{
		Net:              netsim.Config{LatencyPerMessage: 100, PerByte: 1},
		WireBlock:        8192,
		HeaderBytes:      0,
		CPUPerCall:       10,
		AttrCacheTimeout: 1e9,
		DirEntryBytes:    10,
	}
}

// cs wraps a client in the Sync adapter for manual-clock tests (no DES, so
// every continuation completes inline).
func cs(c *Client) *vfs.Sync { return &vfs.Sync{FS: c} }

// readUnderSim starts a DES process that opens path, reads n bytes, and
// closes, reporting the completion time.
func readUnderSim(t *testing.T, env *sim.Env, c *Client, path string, n int64, done func(at sim.Time)) {
	t.Helper()
	env.Start("user", func(p *sim.Proc, fin sim.K) {
		c.Open(p, path, vfs.ReadOnly, func(fd vfs.FD, err error) {
			if err != nil {
				t.Error(err)
				fin()
				return
			}
			c.Read(p, fd, n, func(_ int64, err error) {
				if err != nil {
					t.Error(err)
					fin()
					return
				}
				c.Close(p, fd, func(err error) {
					if err != nil {
						t.Error(err)
					}
					done(p.Now())
					fin()
				})
			})
		})
	})
}

func newTestClient(t *testing.T) *Client {
	t.Helper()
	srv, err := NewServer(nil, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return newClient(srv, nil, testClientConfig(), vfs.NewMemFS())
}

// mkFile creates a file of the given size through the client, without
// asserting on cost.
func mkFile(t *testing.T, c *Client, path string, size int64) {
	t.Helper()
	ctx := &vfs.ManualClock{}
	fd, err := cs(c).Create(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if size > 0 {
		if _, err := cs(c).Write(ctx, fd, size); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
}

func TestServerConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ServerConfig)
		ok     bool
	}{
		{"default", func(*ServerConfig) {}, true},
		{"zero nfsds", func(c *ServerConfig) { c.NFSDs = 0 }, false},
		{"negative cpu", func(c *ServerConfig) { c.CPUPerCall = -1 }, false},
		{"negative cache", func(c *ServerConfig) { c.CacheBlocks = -1 }, false},
		{"bad disk", func(c *ServerConfig) { c.Disk.BlockSize = 0 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultServerConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestClientConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ClientConfig)
		ok     bool
	}{
		{"default", func(*ClientConfig) {}, true},
		{"zero wire block", func(c *ClientConfig) { c.WireBlock = 0 }, false},
		{"negative header", func(c *ClientConfig) { c.HeaderBytes = -1 }, false},
		{"negative net", func(c *ClientConfig) { c.Net.PerByte = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultClientConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestMetaCallCost(t *testing.T) {
	c := newTestClient(t)
	ctx := &vfs.ManualClock{}
	if err := cs(c).Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	// client CPU 10 + request (100) + server 20 + reply (100) = 230.
	if ctx.Now() != 230 {
		t.Errorf("mkdir cost = %v, want 230", ctx.Now())
	}
}

func TestReadColdThenWarm(t *testing.T) {
	c := newTestClient(t)
	mkFile(t, c, "/f", 4096)
	c.server.Invalidate(2) // force the read to miss

	cold := &vfs.ManualClock{}
	fd, err := cs(c).Open(cold, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	openCost := cold.Now()
	if _, err := cs(c).Read(cold, fd, 4096); err != nil {
		t.Fatal(err)
	}
	coldRead := cold.Now() - openCost
	if err := cs(c).Close(cold, fd); err != nil {
		t.Fatal(err)
	}

	warm := &vfs.ManualClock{}
	fd, err = cs(c).Open(warm, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	openCost = warm.Now()
	if _, err := cs(c).Read(warm, fd, 4096); err != nil {
		t.Fatal(err)
	}
	warmRead := warm.Now() - openCost
	if err := cs(c).Close(warm, fd); err != nil {
		t.Fatal(err)
	}

	// The cold read pays the disk (1600 µs); the warm one only wire+CPU.
	if coldRead-warmRead < 1000 {
		t.Errorf("cold read %v, warm read %v: expected disk-scale gap", coldRead, warmRead)
	}
}

func TestWriteThroughAlwaysPaysDisk(t *testing.T) {
	c := newTestClient(t)
	mkFile(t, c, "/f", 4096)

	first := &vfs.ManualClock{}
	fd, err := cs(c).Open(first, "/f", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	base := first.Now()
	if _, err := cs(c).Write(first, fd, 4096); err != nil {
		t.Fatal(err)
	}
	w1 := first.Now() - base
	base = first.Now()
	if _, err := cs(c).Seek(first, fd, 0, vfs.SeekStart); err != nil {
		t.Fatal(err)
	}
	seekCost := first.Now() - base
	base = first.Now()
	if _, err := cs(c).Write(first, fd, 4096); err != nil {
		t.Fatal(err)
	}
	w2 := first.Now() - base
	if err := cs(c).Close(first, fd); err != nil {
		t.Fatal(err)
	}
	if w1 < 1000 || w2 < 1000 {
		t.Errorf("write-through writes %v, %v should both pay the disk", w1, w2)
	}
	if seekCost != 10 {
		t.Errorf("seek cost = %v, want 10 (client CPU only)", seekCost)
	}
}

func TestWireChunking(t *testing.T) {
	c := newTestClient(t)
	mkFile(t, c, "/big", 20000)
	before := c.RPCs()
	ctx := &vfs.ManualClock{}
	fd, err := cs(c).Open(ctx, "/big", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	openRPCs := c.RPCs() - before
	if _, err := cs(c).Read(ctx, fd, 20000); err != nil {
		t.Fatal(err)
	}
	readRPCs := c.RPCs() - before - openRPCs
	// ceil(20000 / 8192) = 3 read RPCs.
	if readRPCs != 3 {
		t.Errorf("read RPCs = %d, want 3", readRPCs)
	}
}

func TestAttrCacheSuppressesLookups(t *testing.T) {
	c := newTestClient(t)
	mkFile(t, c, "/f", 100)
	ctx := &vfs.ManualClock{T: 1} // distinct from the zero value
	// Create already populated the attribute cache.
	before := c.RPCs()
	fd, err := cs(c).Open(ctx, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if got := c.RPCs() - before; got != 0 {
		t.Errorf("open with fresh attrs issued %d RPCs, want 0", got)
	}
	if _, err := cs(c).Stat(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if got := c.RPCs() - before; got != 0 {
		t.Errorf("stat with fresh attrs issued %d RPCs, want 0", got)
	}
}

func TestAttrCacheExpires(t *testing.T) {
	cfg := testClientConfig()
	cfg.AttrCacheTimeout = 50
	srv, err := NewServer(nil, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(srv, nil, cfg, vfs.NewMemFS())
	mkFile(t, c, "/f", 100)
	ctx := &vfs.ManualClock{T: 1e6} // long after creation
	before := c.RPCs()
	fd, err := cs(c).Open(ctx, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if got := c.RPCs() - before; got != 1 {
		t.Errorf("open with stale attrs issued %d RPCs, want 1", got)
	}
}

func TestUnlinkDropsAttrsAndCache(t *testing.T) {
	c := newTestClient(t)
	mkFile(t, c, "/f", 4096)
	ctx := &vfs.ManualClock{}
	if err := cs(c).Unlink(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs(c).Open(ctx, "/f", vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("open after unlink: %v, want ErrNotExist", err)
	}
}

func TestReadAtEOFIsFree(t *testing.T) {
	c := newTestClient(t)
	mkFile(t, c, "/f", 100)
	ctx := &vfs.ManualClock{}
	fd, err := cs(c).Open(ctx, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs(c).Read(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	before := c.RPCs()
	n, err := cs(c).Read(ctx, fd, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("read at EOF = %d bytes", n)
	}
	if c.RPCs() != before {
		t.Error("read at EOF should issue no data RPCs")
	}
}

// sharedClients returns two write-behind clients of one server over one
// backing namespace, the way every user's client shares it.
func sharedClients(t *testing.T) (a, b *Client, srv *Server) {
	t.Helper()
	srv, err := NewServer(nil, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	backing := vfs.NewMemFS()
	a = newClient(srv, nil, cachedClientConfig(), backing)
	b = newClient(srv, nil, cachedClientConfig(), backing)
	return a, b, srv
}

func TestBadFD(t *testing.T) {
	c := newTestClient(t)
	ctx := &vfs.ManualClock{}
	if _, err := cs(c).Read(ctx, 999, 10); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("read bad fd: %v", err)
	}
	if _, err := cs(c).Write(ctx, 999, 10); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("write bad fd: %v", err)
	}
	if err := cs(c).Close(ctx, 999); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("close bad fd: %v", err)
	}

	// A descriptor belongs to the client that opened it, even though the
	// clients share the backing that numbers it.
	a, b, srv := sharedClients(t)
	mkFile(t, a, "/f", 8192)
	fd, err := cs(a).Open(ctx, "/f", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs(a).Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("vfs: bad file descriptor: %d", fd)
	if _, err := cs(b).Read(ctx, fd, 10); err == nil || err.Error() != want {
		t.Errorf("read of another client's fd = %v, want %q", err, want)
	}
	if _, err := cs(b).Write(ctx, fd, 10); err == nil || err.Error() != want {
		t.Errorf("write of another client's fd = %v, want %q", err, want)
	}
	if _, err := cs(b).Seek(ctx, fd, 0, vfs.SeekStart); err == nil || err.Error() != want {
		t.Errorf("seek of another client's fd = %v, want %q", err, want)
	}
	// Closing it through the other client fails and flushes nothing: the
	// dirty data is a's, and no RPC goes out.
	calls, flushes := srv.Calls(), a.Flushes()+b.Flushes()
	if err := cs(b).Close(ctx, fd); err == nil || err.Error() != want {
		t.Errorf("close of another client's fd = %v, want %q", err, want)
	}
	if srv.Calls() != calls || a.Flushes()+b.Flushes() != flushes || b.RPCs() != 0 {
		t.Errorf("foreign close made %d server calls, %d flushes, %d RPCs from b",
			srv.Calls()-calls, a.Flushes()+b.Flushes()-flushes, b.RPCs())
	}
	// The descriptor is still a's, at the offset a's write left.
	if pos, err := cs(a).Seek(ctx, fd, 0, vfs.SeekCurrent); err != nil || pos != 100 {
		t.Errorf("a's seek after the foreign calls = %d, %v; want 100", pos, err)
	}
	if err := cs(a).Close(ctx, fd); err != nil {
		t.Errorf("a's close after the foreign close = %v", err)
	}
}

// TestClientCrashClosesOwnFDs checks that a crash closes exactly the
// descriptors its client opened and leaves a co-mounted client's alone.
func TestClientCrashClosesOwnFDs(t *testing.T) {
	a, b, _ := sharedClients(t)
	ctx := &vfs.ManualClock{}
	mkFile(t, a, "/f", 8192)
	open := func(c *Client, n int) []vfs.FD {
		var fds []vfs.FD
		for range n {
			fd, err := cs(c).Open(ctx, "/f", vfs.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			fds = append(fds, fd)
		}
		return fds
	}
	aFDs, bFDs := open(a, 3), open(b, 2)
	before := a.backing.OpenFDs()
	a.Crash()
	if got := a.backing.OpenFDs(); got != before-len(aFDs) {
		t.Errorf("crash left %d open fds of %d, want %d closed", got, before, len(aFDs))
	}
	for _, fd := range aFDs {
		if _, err := cs(a).Read(ctx, fd, 10); !errors.Is(err, vfs.ErrBadFD) {
			t.Errorf("read of crashed fd %d = %v, want ErrBadFD", fd, err)
		}
	}
	for _, fd := range bFDs {
		if n, err := cs(b).Read(ctx, fd, 10); err != nil || n != 10 {
			t.Errorf("co-mounted client's fd %d read %d, %v after the crash", fd, n, err)
		}
	}
}

func TestReadDirChargesPerEntry(t *testing.T) {
	c := newTestClient(t)
	mkFile(t, c, "/a", 1)
	mkFile(t, c, "/b", 1)
	mkFile(t, c, "/c", 1)
	ctx := &vfs.ManualClock{}
	names, err := cs(c).ReadDir(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("readdir = %v", names)
	}
	// client 10 + req 100 + server 20 + reply (100 + 3*10) = 260.
	if ctx.Now() != 260 {
		t.Errorf("readdir cost = %v, want 260", ctx.Now())
	}
}

func TestNFSDContentionUnderSim(t *testing.T) {
	// Two simulated users reading distinct uncached files through a
	// single-nfsd server must serialize at the daemon pool.
	env := sim.NewEnv()
	srv, err := NewServer(env, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(env, netsim.Config{LatencyPerMessage: 10, PerByte: 0})
	c := newClient(srv, link, testClientConfig(), vfs.NewMemFS())
	mkFile(t, c, "/a", 4096)
	mkFile(t, c, "/b", 4096)
	srv.Invalidate(2)
	srv.Invalidate(3)

	var done [2]sim.Time
	for i, path := range []string{"/a", "/b"} {
		i, path := i, path
		readUnderSim(t, env, c, path, 4096, func(at sim.Time) { done[i] = at })
	}
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	gap := done[1] - done[0]
	if gap < 1000 {
		t.Errorf("reads did not serialize at the server: %v (gap %v)", done, gap)
	}
	if srv.NFSDUtilization() <= 0 {
		t.Error("nfsd utilization should be positive")
	}
	if srv.Calls() == 0 || srv.DataCalls() == 0 {
		t.Error("server call counters not advancing")
	}
}

func TestMoreNFSDsReduceWait(t *testing.T) {
	// With as many daemons as users, queueing at the pool disappears.
	run := func(nfsds int) sim.Time {
		env := sim.NewEnv()
		cfg := testServerConfig()
		cfg.NFSDs = nfsds
		cfg.CacheBlocks = 0 // all reads hit the disk resource
		srv, err := NewServer(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(srv, nil, testClientConfig(), vfs.NewMemFS())
		for i := 0; i < 4; i++ {
			mkFile(t, c, "/f"+string(rune('0'+i)), 4096)
		}
		var last sim.Time
		for i := 0; i < 4; i++ {
			path := "/f" + string(rune('0'+i))
			readUnderSim(t, env, c, path, 4096, func(at sim.Time) {
				if at > last {
					last = at
				}
			})
		}
		if err := env.Run(sim.Forever); err != nil {
			t.Fatal(err)
		}
		return last
	}
	one, four := run(1), run(4)
	if four >= one {
		t.Errorf("4 nfsds finished at %v, 1 nfsd at %v: more daemons should not be slower", four, one)
	}
}
