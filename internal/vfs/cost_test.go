package vfs

import (
	"testing"

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

func TestNoCostChargesNothing(t *testing.T) {
	ctx := &ManualClock{}
	var m NoCost
	m.MetaOp(ctx, func() {})
	m.DataOp(ctx, 1, 0, 1<<20, true, func() {})
	m.Truncate(ctx, 1)
	if ctx.Now() != 0 {
		t.Errorf("NoCost charged %v", ctx.Now())
	}
}

func TestLocalCostMetaOp(t *testing.T) {
	lc := NewLocalCost(nil, testCostConfig())
	ctx := &ManualClock{}
	lc.MetaOp(ctx, func() {})
	if ctx.Now() != 10 {
		t.Errorf("meta op charged %v, want 10", ctx.Now())
	}
}

func TestLocalCostColdReadThenWarm(t *testing.T) {
	lc := NewLocalCost(nil, testCostConfig())
	cold := &ManualClock{}
	lc.DataOp(cold, 1, 0, 4096, false, func() {})
	// One block miss: seek 1000 + rot 500 + transfer 100 = 1600.
	if cold.Now() != 1600 {
		t.Errorf("cold read charged %v, want 1600", cold.Now())
	}
	warm := &ManualClock{}
	lc.DataOp(warm, 1, 0, 4096, false, func() {})
	if warm.Now() != 1 {
		t.Errorf("warm read charged %v, want 1 (hit cost)", warm.Now())
	}
}

func TestLocalCostWriteBehindIsCheap(t *testing.T) {
	lc := NewLocalCost(nil, testCostConfig())
	ctx := &ManualClock{}
	lc.DataOp(ctx, 1, 0, 8192, true, func() {})
	// Two blocks absorbed by cache at hit cost each.
	if ctx.Now() != 2 {
		t.Errorf("write-behind charged %v, want 2", ctx.Now())
	}
	// And the blocks are now cached for reads.
	read := &ManualClock{}
	lc.DataOp(read, 1, 0, 8192, false, func() {})
	if read.Now() != 2 {
		t.Errorf("read after write charged %v, want 2", read.Now())
	}
}

func TestLocalCostWriteThroughHitsDisk(t *testing.T) {
	cfg := testCostConfig()
	cfg.WriteThrough = true
	lc := NewLocalCost(nil, cfg)
	ctx := &ManualClock{}
	lc.DataOp(ctx, 1, 0, 4096, true, func() {})
	if ctx.Now() < 1000 {
		t.Errorf("write-through charged %v, want disk-scale cost", ctx.Now())
	}
}

func TestLocalCostTruncateInvalidates(t *testing.T) {
	lc := NewLocalCost(nil, testCostConfig())
	ctx := &ManualClock{}
	lc.DataOp(ctx, 1, 0, 4096, false, func() {}) // populate
	lc.Truncate(ctx, 1)
	again := &ManualClock{}
	lc.DataOp(again, 1, 0, 4096, false, func() {})
	if again.Now() < 1000 {
		t.Errorf("read after truncate charged %v, want disk-scale cost", again.Now())
	}
}

func TestLocalCostZeroBytes(t *testing.T) {
	lc := NewLocalCost(nil, testCostConfig())
	ctx := &ManualClock{}
	lc.DataOp(ctx, 1, 0, 0, false, func() {})
	if ctx.Now() != 0 {
		t.Errorf("zero-byte op charged %v", ctx.Now())
	}
}

func TestLocalCostDiskContentionUnderSim(t *testing.T) {
	// Two processes reading distinct uncached files through one disk arm
	// must serialize: completions differ by a full service time. Their
	// pooled MemFS op states are live at once (both opens hold, then both
	// reads queue at the disk), so each process must still get its own
	// file's size back, and every state must be back on the free list.
	env := sim.NewEnv()
	lc := NewLocalCost(env, testCostConfig())
	mem := NewMemFS(WithCostModel(lc))
	fs := Sync{FS: mem}
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
	lc.Truncate(setup, 2)
	lc.Truncate(setup, 3)
	lc.Cache().InvalidateFile(2)
	lc.Cache().InvalidateFile(3)

	var done [2]sim.Time
	var got [2]int64
	for i, p := range paths {
		i, p := i, p
		env.Start("reader", func(proc *sim.Proc, fin sim.K) {
			mem.Open(proc, p, ReadOnly, func(fd FD, err error) {
				if err != nil {
					t.Error(err)
					fin()
					return
				}
				mem.Read(proc, fd, 1<<20, func(n int64, err error) {
					if err != nil {
						t.Error(err)
						fin()
						return
					}
					got[i] = n
					mem.Close(proc, fd, func(err error) {
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
	if mem.opsMade < 2 || freeOps(mem) != mem.opsMade {
		t.Errorf("op pool made %d states, %d back on the free list; want >= 2, all of them", mem.opsMade, freeOps(mem))
	}
	if mem.OpenFDs() != 0 {
		t.Errorf("%d descriptors leaked", mem.OpenFDs())
	}
}

func TestMemFSWithCostChargesReads(t *testing.T) {
	lc := NewLocalCost(nil, testCostConfig())
	fs := Sync{FS: NewMemFS(WithCostModel(lc))}
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
	if ctx.Now() <= before {
		t.Error("reads through a cost model should consume time")
	}
}
