package vfs

import (
	"errors"
	"testing"

	"uswg/internal/cache"
	"uswg/internal/disk"
	"uswg/internal/sim"
)

func testCostConfig() LocalCostConfig {
	return LocalCostConfig{
		Disk:        disk.Model{SeekTime: 1000, HalfRotation: 500, TransferPerBlock: 100, BlockSize: 4096},
		CacheBlocks: 8,
		MetaTime:    10,
		HitPerBlock: 1,
	}
}

// localFile returns a LocalCost over a namespace holding /f of size bytes,
// written around the local file system so that its cache starts cold, and a
// descriptor open on /f in mode.
func localFile(tb testing.TB, cfg LocalCostConfig, size int64, mode OpenMode) (*LocalCost, FD) {
	tb.Helper()
	ns := NewMemFS()
	b := ns.Bare()
	fd, _, err := b.Create("/f", nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, _, _, err := b.Advance(fd, size, true, nil); err != nil {
		tb.Fatal(err)
	}
	if err := b.Close(fd, nil); err != nil {
		tb.Fatal(err)
	}
	lc := NewLocalCost(sim.NewEnv(), cfg, ns)
	s := Sync{FS: lc}
	if fd, err = s.Open(&ManualClock{}, "/f", mode); err != nil {
		tb.Fatal(err)
	}
	return lc, fd
}

// TestLocalCostMetaOp: every metadata call charges MetaTime once, failed
// ones included, and Seek charges nothing.
func TestLocalCostMetaOp(t *testing.T) {
	lc, fd := localFile(t, testCostConfig(), 100, ReadOnly)
	s := Sync{FS: lc}
	calls := []struct {
		name string
		call func(ctx Ctx) error
	}{
		{"mkdir", func(ctx Ctx) error { return s.Mkdir(ctx, "/d") }},
		{"create", func(ctx Ctx) error { _, err := s.Create(ctx, "/d/g"); return err }},
		{"open", func(ctx Ctx) error { _, err := s.Open(ctx, "/f", ReadOnly); return err }},
		{"stat", func(ctx Ctx) error { _, err := s.Stat(ctx, "/f"); return err }},
		{"readdir", func(ctx Ctx) error { _, err := s.ReadDir(ctx, "/d"); return err }},
		{"close", func(ctx Ctx) error { return s.Close(ctx, fd) }},
		{"unlink", func(ctx Ctx) error { return s.Unlink(ctx, "/f") }},
		{"failed open", func(ctx Ctx) error {
			if _, err := s.Open(ctx, "/f", ReadOnly); !errors.Is(err, ErrNotExist) {
				return errors.New("open of an unlinked file succeeded")
			}
			return nil
		}},
	}
	for _, c := range calls {
		ctx := &ManualClock{}
		if err := c.call(ctx); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ctx.Now() != 10 {
			t.Errorf("%s charged %v, want 10", c.name, ctx.Now())
		}
	}
	ctx := &ManualClock{}
	if _, err := s.Seek(ctx, fd, 0, SeekStart); !errors.Is(err, ErrBadFD) {
		t.Errorf("seek on a closed descriptor = %v, want ErrBadFD", err)
	}
	if ctx.Now() != 0 {
		t.Errorf("seek charged %v, want 0", ctx.Now())
	}
}

func TestLocalCostColdReadThenWarm(t *testing.T) {
	lc, fd := localFile(t, testCostConfig(), 4096, ReadOnly)
	s := Sync{FS: lc}
	cold := &ManualClock{}
	if n, err := s.Read(cold, fd, 4096); n != 4096 || err != nil {
		t.Fatalf("cold read = %d, %v", n, err)
	}
	// One block miss: seek 1000 + rot 500 + transfer 100 = 1600.
	if cold.Now() != 1600 {
		t.Errorf("cold read charged %v, want 1600", cold.Now())
	}
	if _, err := s.Seek(cold, fd, 0, SeekStart); err != nil {
		t.Fatal(err)
	}
	warm := &ManualClock{}
	if _, err := s.Read(warm, fd, 4096); err != nil {
		t.Fatal(err)
	}
	if warm.Now() != 1 {
		t.Errorf("warm read charged %v, want 1 (hit cost)", warm.Now())
	}
}

func TestLocalCostWriteBehindIsCheap(t *testing.T) {
	lc, fd := localFile(t, testCostConfig(), 0, ReadWrite)
	s := Sync{FS: lc}
	ctx := &ManualClock{}
	if _, err := s.Write(ctx, fd, 8192); err != nil {
		t.Fatal(err)
	}
	// Two blocks absorbed by cache at hit cost each.
	if ctx.Now() != 2 {
		t.Errorf("write-behind charged %v, want 2", ctx.Now())
	}
	// And the blocks are now cached for reads.
	if _, err := s.Seek(ctx, fd, 0, SeekStart); err != nil {
		t.Fatal(err)
	}
	read := &ManualClock{}
	if _, err := s.Read(read, fd, 8192); err != nil {
		t.Fatal(err)
	}
	if read.Now() != 2 {
		t.Errorf("read after write charged %v, want 2", read.Now())
	}
}

// TestLocalCostWriteThroughHitsDisk: under write-through every written
// block goes to disk, a rewrite of a cached block included, and stays
// cached for reads.
func TestLocalCostWriteThroughHitsDisk(t *testing.T) {
	cfg := testCostConfig()
	cfg.WriteThrough = true
	lc, fd := localFile(t, cfg, 0, ReadWrite)
	s := Sync{FS: lc}
	for _, pass := range []string{"write", "rewrite"} {
		ctx := &ManualClock{}
		if _, err := s.Write(ctx, fd, 4096); err != nil {
			t.Fatal(err)
		}
		if ctx.Now() < 1000 {
			t.Errorf("write-through %s charged %v, want disk-scale cost", pass, ctx.Now())
		}
		if _, err := s.Seek(ctx, fd, 0, SeekStart); err != nil {
			t.Fatal(err)
		}
	}
	read := &ManualClock{}
	if _, err := s.Read(read, fd, 4096); err != nil {
		t.Fatal(err)
	}
	if read.Now() != 1 {
		t.Errorf("read after write-through charged %v, want 1 (hit cost)", read.Now())
	}
}

// TestLocalCostTruncateInvalidates: a truncating Create and an Unlink each
// drop the file's cached blocks, so a descriptor still open on the unlinked
// file reads from disk.
func TestLocalCostTruncateInvalidates(t *testing.T) {
	lc, rfd := localFile(t, testCostConfig(), 4096, ReadOnly)
	s := Sync{FS: lc}
	ctx := &ManualClock{}
	info, err := s.Stat(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	blk := cache.BlockID{File: info.Ino}
	if _, err := s.Read(ctx, rfd, 4096); err != nil {
		t.Fatal(err)
	}
	if !lc.Cache().Contains(blk) {
		t.Fatal("a read left its block uncached")
	}
	wfd, err := s.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if lc.Cache().Contains(blk) {
		t.Error("a truncating create left the file's block cached")
	}
	if _, err := s.Write(ctx, wfd, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx, wfd); err != nil {
		t.Fatal(err)
	}
	if !lc.Cache().Contains(blk) {
		t.Fatal("a write-behind write left its block uncached")
	}
	if err := s.Unlink(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if lc.Cache().Contains(blk) {
		t.Error("unlink left the file's block cached")
	}
	if _, err := s.Seek(ctx, rfd, 0, SeekStart); err != nil {
		t.Fatal(err)
	}
	again := &ManualClock{}
	if n, err := s.Read(again, rfd, 4096); n != 4096 || err != nil {
		t.Fatalf("read of the unlinked file = %d, %v; want 4096 bytes", n, err)
	}
	if again.Now() < 1000 {
		t.Errorf("read after unlink charged %v, want disk-scale cost", again.Now())
	}
}

// TestLocalCostZeroBytes: an empty transfer and a failed one deliver at
// once and charge nothing.
func TestLocalCostZeroBytes(t *testing.T) {
	lc, fd := localFile(t, testCostConfig(), 4096, ReadWrite)
	s := Sync{FS: lc}
	ctx := &ManualClock{}
	if n, err := s.Write(ctx, fd, 0); n != 0 || err != nil {
		t.Errorf("empty write = %d, %v", n, err)
	}
	if _, err := s.Seek(ctx, fd, 0, SeekEnd); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Read(ctx, fd, 4096); n != 0 || err != nil {
		t.Errorf("read at end of file = %d, %v", n, err)
	}
	if _, err := s.Read(ctx, fd+1, 4096); !errors.Is(err, ErrBadFD) {
		t.Errorf("read of an unopened descriptor = %v, want ErrBadFD", err)
	}
	if _, err := s.Write(ctx, fd, -1); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative write = %v, want ErrInvalid", err)
	}
	if ctx.Now() != 0 {
		t.Errorf("empty and failed transfers charged %v", ctx.Now())
	}
}

func TestLocalCostDiskContentionUnderSim(t *testing.T) {
	// Two processes reading distinct uncached files through one disk arm
	// must serialize: completions differ by a full service time. Their
	// pooled call states are live at once (both opens hold, then both
	// reads queue at the disk), so each process must still get its own
	// file's size back, and every state must be back on the free list.
	env := sim.NewEnv()
	ns := NewMemFS()
	lc := NewLocalCost(env, testCostConfig(), ns)
	fs := Sync{FS: lc}
	setup := &ManualClock{}
	paths := []string{"/a", "/b"}
	sizes := []int64{4096, 8192}
	for i, p := range paths {
		fd, err := fs.Create(setup, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(setup, fd, sizes[i]); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(setup, fd); err != nil {
			t.Fatal(err)
		}
	}
	// The setup writes populated the cache; invalidate to force misses.
	lc.Cache().InvalidateFile(2)
	lc.Cache().InvalidateFile(3)

	var done [2]sim.Time
	var got [2]int64
	for i, p := range paths {
		i, p := i, p
		env.Start("reader", func(proc *sim.Proc, fin sim.K) {
			lc.Open(proc, p, ReadOnly, func(fd FD, err error) {
				if err != nil {
					t.Error(err)
					fin()
					return
				}
				lc.Read(proc, fd, 1<<20, func(n int64, err error) {
					if err != nil {
						t.Error(err)
						fin()
						return
					}
					got[i] = n
					lc.Close(proc, fd, func(err error) {
						if err != nil {
							t.Error(err)
							fin()
							return
						}
						done[i] = proc.Now()
						fin()
					})
				})
			})
		})
	}
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	gap := done[1] - done[0]
	if gap < 1500 {
		t.Errorf("disk accesses did not serialize: completions %v (gap %v)", done, gap)
	}
	if got != [2]int64{sizes[0], sizes[1]} {
		t.Errorf("concurrent reads delivered %v, want %v", got, sizes)
	}
	if lc.opsMade < 2 || freeOps(lc) != lc.opsMade {
		t.Errorf("op pool made %d states, %d back on the free list; want >= 2, all of them", lc.opsMade, freeOps(lc))
	}
	if ns.OpenFDs() != 0 {
		t.Errorf("%d descriptors leaked", ns.OpenFDs())
	}
}

// TestLocalCostIdleNamesHeldArm: a call that keeps the disk arm past the
// end of a run is a leak Idle names, though every call state is back.
func TestLocalCostIdleNamesHeldArm(t *testing.T) {
	env := sim.NewEnv()
	lc := NewLocalCost(env, testCostConfig(), NewMemFS())
	if err := lc.Idle(); err != nil {
		t.Fatalf("a new local file system is not idle: %v", err)
	}
	env.Start("holder", func(p *sim.Proc, fin sim.K) { lc.store.Disk().Acquire(p, fin) })
	if err := env.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	want := "vfs: the local file system's disk arm has 1 held and 0 queued"
	if err := lc.Idle(); err == nil || err.Error() != want {
		t.Errorf("Idle with the arm held = %v, want %q", err, want)
	}
}

// TestMemFSWithCostChargesReads: the local file system over a MemFS
// namespace charges reads, where the MemFS alone charges nothing.
func TestMemFSWithCostChargesReads(t *testing.T) {
	for _, fsys := range []FileSystem{NewLocalCost(sim.NewEnv(), testCostConfig(), NewMemFS()), NewMemFS()} {
		fs := Sync{FS: fsys}
		ctx := &ManualClock{}
		fd, err := fs.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(ctx, fd, 4096); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(ctx, fd); err != nil {
			t.Fatal(err)
		}
		before := ctx.Now()
		rfd, err := fs.Open(ctx, "/f", ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Read(ctx, rfd, 4096); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(ctx, rfd); err != nil {
			t.Fatal(err)
		}
		if _, charged := fsys.(*LocalCost); charged != (ctx.Now() > before) {
			t.Errorf("%T: reading took %v of time", fsys, ctx.Now()-before)
		}
	}
}
