package nfs

import (
	"testing"

	"uswg/internal/vfs"
)

// cachedClientConfig enables the client page cache with write-behind.
func cachedClientConfig() ClientConfig {
	cfg := testClientConfig()
	cfg.CacheBlocks = 64
	cfg.HitPerBlock = 5
	cfg.WriteBehind = true
	cfg.MaxDirtyBlocks = 8
	return cfg
}

func newCachedClient(t *testing.T) *Client {
	t.Helper()
	srv, err := NewServer(nil, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return newClient(srv, nil, cachedClientConfig(), vfs.NewMemFS())
}

func TestClientCacheMakesRereadsCheap(t *testing.T) {
	c := newCachedClient(t)
	mkFile(t, c, "/f", 8192)

	ctx := &vfs.ManualClock{}
	fd, err := cs(c).Open(ctx, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	before := ctx.Now()
	if _, err := cs(c).Read(ctx, fd, 8192); err != nil {
		t.Fatal(err)
	}
	warmRead := ctx.Now() - before // write-behind left the pages cached
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	// One 8192 read = client CPU 10 + one cached block hit 5 = 15.
	if warmRead != 15 {
		t.Errorf("cached read cost = %v, want 15", warmRead)
	}
}

func TestClientCacheMissFetchesOnce(t *testing.T) {
	c := newCachedClient(t)
	mkFile(t, c, "/f", 16384)
	c.Pages().InvalidateFile(2)
	c.server.Invalidate(2)

	ctx := &vfs.ManualClock{}
	fd, err := cs(c).Open(ctx, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	before := c.RPCs()
	if _, err := cs(c).Read(ctx, fd, 16384); err != nil {
		t.Fatal(err)
	}
	coldRPCs := c.RPCs() - before
	if coldRPCs != 2 { // two 8 KiB wire blocks
		t.Errorf("cold read RPCs = %d, want 2", coldRPCs)
	}
	if _, err := cs(c).Seek(ctx, fd, 0, vfs.SeekStart); err != nil {
		t.Fatal(err)
	}
	before = c.RPCs()
	if _, err := cs(c).Read(ctx, fd, 16384); err != nil {
		t.Fatal(err)
	}
	if got := c.RPCs() - before; got != 0 {
		t.Errorf("re-read issued %d RPCs, want 0", got)
	}
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBehindDefersRPCsUntilClose(t *testing.T) {
	c := newCachedClient(t)
	ctx := &vfs.ManualClock{}
	fd, err := cs(c).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	before := c.RPCs()
	// 3 blocks of data: under the 8-block dirty threshold, so no RPCs yet.
	if _, err := cs(c).Write(ctx, fd, 3*8192); err != nil {
		t.Fatal(err)
	}
	if got := c.RPCs() - before; got != 0 {
		t.Errorf("write-behind issued %d RPCs before close, want 0", got)
	}
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if got := c.RPCs() - before; got != 3 {
		t.Errorf("close flushed %d RPCs, want 3", got)
	}
	if c.Flushes() != 1 {
		t.Errorf("flushes = %d, want 1", c.Flushes())
	}
}

func TestWriteBehindThresholdForcesFlush(t *testing.T) {
	c := newCachedClient(t) // MaxDirtyBlocks = 8
	ctx := &vfs.ManualClock{}
	fd, err := cs(c).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	before := c.RPCs()
	// 10 blocks exceeds the threshold mid-write: a flush must happen.
	if _, err := cs(c).Write(ctx, fd, 10*8192); err != nil {
		t.Fatal(err)
	}
	if got := c.RPCs() - before; got == 0 {
		t.Error("dirty threshold did not force a flush")
	}
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkDiscardsDirtyData(t *testing.T) {
	c := newCachedClient(t)
	ctx := &vfs.ManualClock{}
	fd, err := cs(c).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs(c).Write(ctx, fd, 8192); err != nil {
		t.Fatal(err)
	}
	// Unlink before close: the dirty span is discarded, so the close that
	// follows must not flush write RPCs for it.
	if err := cs(c).Unlink(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	before := c.RPCs()
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if got := c.RPCs() - before; got != 0 {
		t.Errorf("close after unlink flushed %d RPCs, want 0", got)
	}
}

func TestCreateTruncateDiscardsPages(t *testing.T) {
	c := newCachedClient(t)
	mkFile(t, c, "/f", 8192)
	ctx := &vfs.ManualClock{}
	// Re-create truncates: cached pages for the old content must go.
	fd, err := cs(c).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs(c).Write(ctx, fd, 8192); err != nil {
		t.Fatal(err)
	}
	if err := cs(c).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	// The file still reads correctly (8192 bytes) through the cache.
	rfd, err := cs(c).Open(ctx, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cs(c).Read(ctx, rfd, 99999)
	if err != nil || n != 8192 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if err := cs(c).Close(ctx, rfd); err != nil {
		t.Fatal(err)
	}
}

func TestCacheDisabledKeepsSynchronousSemantics(t *testing.T) {
	// The original (CacheBlocks=0) tests cover this path; double-check the
	// default config enables the cache while validation accepts both.
	def := DefaultClientConfig()
	if def.CacheBlocks == 0 || !def.WriteBehind {
		t.Error("default client should cache with write-behind")
	}
	def.CacheBlocks = -1
	if err := def.Validate(); err == nil {
		t.Error("negative cache blocks should fail validation")
	}
}

// TestOneOpStatePerCall runs calls of every kind, one at a time, on a fresh
// client, with write-behind on and off: a Mkdir, a Create, a Write past the
// dirty threshold and a smaller one, a Close that flushes, a cold Stat and
// a ReadDir. Each call runs its metadata RPC, push or flush on its own op
// state, so the client never needs a second one, and the state it leaves
// on the free list holds no step.
func TestOneOpStatePerCall(t *testing.T) {
	for _, behind := range []bool{true, false} {
		cfg := cachedClientConfig()
		cfg.WriteBehind = behind
		cfg.AttrCacheTimeout = 0 // every Stat is a getattr RPC
		srv, err := NewServer(nil, testServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(srv, nil, cfg, vfs.NewMemFS())
		ctx := &vfs.ManualClock{}
		fs := cs(c)
		if err := fs.Mkdir(ctx, "/d"); err != nil {
			t.Fatal(err)
		}
		fd, err := fs.Create(ctx, "/d/f")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{10 * cfg.WireBlock, 100} { // past the threshold, then dirty at close
			if _, err := fs.Write(ctx, fd, n); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Close(ctx, fd); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat(ctx, "/d/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadDir(ctx, "/d"); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int64{true: 2, false: 0}[behind]; c.Flushes() != want {
			t.Errorf("write-behind %v: %d flushes, want %d", behind, c.Flushes(), want)
		}
		if n := len(c.ops); n != 1 {
			t.Errorf("write-behind %v: the calls left %d op states, want 1", behind, n)
		} else if c.ops[0].step != nil {
			t.Errorf("write-behind %v: the recycled op state keeps its last step", behind)
		}
	}
}

// TestStateCost pins what making a pooled state costs: a client op state
// or a server call state taken from an emptied free list and put back
// allocates the state and its one bound continuation.
func TestStateCost(t *testing.T) {
	srv, err := NewServer(nil, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(srv, nil, cachedClientConfig(), vfs.NewMemFS())
	for _, tc := range []struct {
		name  string
		cycle func()
	}{
		{"Client.getOp", func() { c.ops = c.ops[:0]; c.putOp(c.getOp(nil)) }},
		{"Server.getCall", func() { srv.pool = srv.pool[:0]; srv.putCall(srv.getCall(nil)) }},
	} {
		if n := testing.AllocsPerRun(100, tc.cycle); n != 2 {
			t.Errorf("%s on an empty free list: %v allocations, want 2", tc.name, n)
		}
	}
}
