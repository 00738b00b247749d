package vfs

import (
	"fmt"

	"uswg/internal/cache"
	"uswg/internal/disk"
	"uswg/internal/sim"
)

// CostModel charges virtual time for file system operations. MetaOp and
// DataOp are continuation-passing, mirroring Ctx.Hold: under the DES they
// may suspend at holds or a disk queue, so the work that follows a charge
// must live in k. Truncate never suspends and stays call-and-return.
type CostModel interface {
	// MetaOp charges for a metadata operation (open, close, stat, create,
	// unlink, mkdir, readdir), then runs k.
	MetaOp(ctx Ctx, k func())
	// DataOp charges for transferring n bytes at offset off of inode ino,
	// then runs k.
	DataOp(ctx Ctx, ino uint64, off, n int64, write bool, k func())
	// Truncate invalidates cached state for an inode (file truncated or
	// removed). It must not suspend.
	Truncate(ctx Ctx, ino uint64)
}

// NoCost charges nothing. It is the model for namespace bookkeeping (e.g.,
// the NFS client's shadow of the server namespace, which charges through its
// own RPC accounting instead).
type NoCost struct{}

var _ CostModel = NoCost{}

// MetaOp charges nothing.
func (NoCost) MetaOp(_ Ctx, k func()) { k() }

// DataOp charges nothing.
func (NoCost) DataOp(_ Ctx, _ uint64, _, _ int64, _ bool, k func()) { k() }

// Truncate does nothing.
func (NoCost) Truncate(Ctx, uint64) {}

// LocalCostConfig parameterizes LocalCost.
type LocalCostConfig struct {
	// Disk is the drive model.
	Disk disk.Model
	// CacheBlocks is the buffer cache capacity in blocks (0 disables).
	CacheBlocks int
	// MetaTime is the CPU cost of a metadata system call, µs.
	MetaTime float64
	// HitPerBlock is the memory-copy cost of a cached block, µs.
	HitPerBlock float64
	// WriteThrough forces synchronous writes to disk. A local UNIX file
	// system uses write-behind (false); NFSv2 servers write through (true).
	WriteThrough bool
}

// Validate reports whether the configuration is usable.
func (c LocalCostConfig) Validate() error {
	if c.CacheBlocks < 0 || c.MetaTime < 0 || c.HitPerBlock < 0 {
		return fmt.Errorf("vfs: negative local cost parameter in %+v", c)
	}
	return c.Disk.Validate()
}

// DefaultLocalCostConfig resembles a period workstation: 4 MB buffer cache
// over the default disk, 150 µs per metadata call, 30 µs per cached block.
func DefaultLocalCostConfig() LocalCostConfig {
	return LocalCostConfig{
		Disk:        disk.Default(),
		CacheBlocks: 1024,
		MetaTime:    150,
		HitPerBlock: 30,
	}
}

// LocalCost models a local UNIX file system: a buffer cache in front of one
// disk arm. When attached to a DES environment the disk is a contended
// resource; otherwise disk time is charged without queueing.
type LocalCost struct {
	cfg     LocalCostConfig
	arm     *disk.Arm
	cache   *cache.LRU
	diskRes *sim.Resource // nil outside a DES
	opFree  *dataOp       // free list of per-DataOp states (single-threaded under the DES)
}

var _ CostModel = (*LocalCost)(nil)

// NewLocalCost returns a cost model. env may be nil, in which case disk
// accesses are charged without contention.
func NewLocalCost(env *sim.Env, cfg LocalCostConfig) *LocalCost {
	lc := &LocalCost{
		cfg:   cfg,
		arm:   disk.NewArm(cfg.Disk),
		cache: cache.NewLRU(cfg.CacheBlocks),
	}
	if env != nil {
		lc.diskRes = sim.NewResource(env, 1)
	}
	return lc
}

// Cache exposes the block cache for inspection by tests and reports.
func (lc *LocalCost) Cache() *cache.LRU { return lc.cache }

// MetaOp charges the metadata CPU time.
func (lc *LocalCost) MetaOp(ctx Ctx, k func()) {
	ctx.Hold(lc.cfg.MetaTime, k)
}

// DataOp charges per-block cache hits and disk service for misses. Writes
// under write-behind are absorbed by the cache; under write-through every
// written block goes to disk. The per-block walk holds between cache
// touches, so concurrent processes interleave with this one exactly as they
// did under the goroutine kernel (the shared cache sees the same access
// order). The walk state lives in a pooled dataOp with once-bound
// continuations, so a steady-state data op allocates nothing.
func (lc *LocalCost) DataOp(ctx Ctx, ino uint64, off, n int64, write bool, k func()) {
	if n <= 0 {
		k()
		return
	}
	op := lc.getOp()
	op.ctx = ctx
	op.ino = ino
	op.write = write
	op.k = k
	bs := lc.cfg.Disk.BlockSize
	op.first = off / bs
	op.last = (off + n - 1) / bs
	op.b = op.first
	op.missBlocks = 0
	op.walk()
}

// dataOp is the defunctionalized state of one LocalCost.DataOp: the cache
// walk, the disk acquisition, and the final continuation, bound to method
// values once when the state is first allocated and recycled through the
// owning LocalCost's free list thereafter. The schedule points (hold
// durations, acquire order) are exactly the ones the closure tower it
// replaced produced, so event order — and every rendered byte — is
// unchanged.
type dataOp struct {
	lc   *LocalCost
	next *dataOp // free list link

	ctx            Ctx
	ino            uint64
	first, last, b int64
	missBlocks     int64
	write          bool
	k              func()

	walkFn     func()
	acquiredFn func()
	releasedFn func()
	doneFn     func()
}

func (lc *LocalCost) getOp() *dataOp {
	op := lc.opFree
	if op == nil {
		op = &dataOp{lc: lc}
		op.walkFn = op.walk
		op.acquiredFn = op.acquired
		op.releasedFn = op.released
		op.doneFn = op.done
		return op
	}
	lc.opFree = op.next
	return op
}

// walk touches blocks until one suspends (cache-hit copy charge) or the op
// runs out, then moves to the disk pass for the accumulated misses.
func (op *dataOp) walk() {
	lc := op.lc
	for op.b <= op.last {
		id := cache.BlockID{File: op.ino, Block: op.b}
		op.b++
		if op.write && !lc.cfg.WriteThrough {
			// Write-behind: install the block, charge a memory copy.
			lc.cache.Access(id)
			op.ctx.Hold(lc.cfg.HitPerBlock, op.walkFn)
			return
		}
		if lc.cache.Access(id) {
			op.ctx.Hold(lc.cfg.HitPerBlock, op.walkFn)
			return
		}
		op.missBlocks++
	}
	op.finish()
}

// finish fetches (or writes through) all missing blocks in one disk pass.
func (op *dataOp) finish() {
	if op.missBlocks == 0 {
		op.done()
		return
	}
	lc := op.lc
	p, inSim := op.ctx.(*sim.Proc)
	if inSim && lc.diskRes != nil {
		lc.diskRes.Acquire(p, op.acquiredFn)
		return
	}
	op.ctx.Hold(lc.arm.Access(op.fileBase(), op.first*lc.cfg.Disk.BlockSize, op.missBytes()), op.doneFn)
}

// acquired holds for the disk service time. The arm moves only here, after
// the resource grant, preserving the seek-state sequence of the original
// closure form.
func (op *dataOp) acquired() {
	lc := op.lc
	op.ctx.Hold(lc.arm.Access(op.fileBase(), op.first*lc.cfg.Disk.BlockSize, op.missBytes()), op.releasedFn)
}

func (op *dataOp) released() {
	op.lc.diskRes.Release()
	op.done()
}

// done recycles the state and runs the caller's continuation. The state is
// released first: k may immediately start another DataOp on this LocalCost
// and reuse it.
func (op *dataOp) done() {
	k := op.k
	lc := op.lc
	op.ctx, op.k = nil, nil
	op.next = lc.opFree
	lc.opFree = op
	k()
}

// fileBase separates files by 2^20 blocks so they are never "sequential"
// with each other.
func (op *dataOp) fileBase() int64 { return int64(op.ino) << 20 }

func (op *dataOp) missBytes() int64 { return op.missBlocks * op.lc.cfg.Disk.BlockSize }

// Truncate invalidates the inode's cached blocks.
func (lc *LocalCost) Truncate(_ Ctx, ino uint64) {
	lc.cache.InvalidateFile(ino)
}
