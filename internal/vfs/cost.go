package vfs

import (
	"fmt"

	"uswg/internal/cache"
	"uswg/internal/disk"
	"uswg/internal/sim"
)

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
	// WriteThrough forces synchronous writes to disk: every written block
	// goes to disk, cached or not. A local UNIX file system uses
	// write-behind (false); NFSv2 servers write through (true).
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

// LocalCost is the simulated local UNIX file system of the §5.3
// comparison: a storage stage (disk.Store), a buffer cache over one disk
// arm. Like the NFS client, it is a FileSystem over a MemFS's
// cost-free Bare namespace that charges its own time. A metadata call
// holds for MetaTime, then makes the namespace call. A read or write
// advances the descriptor at once, then charges each cached block and one
// disk pass for the misses; Seek charges nothing. The disk pass takes the
// arm through Acquire, so it queues under the DES and is charged without
// queueing on a synchronous clock. Every user shares the one
// local file system, so its descriptors carry no owner and it is no
// Crasher: a crashed session's own descriptors are closed one by one. (The
// name dates from when it was a cost model that a MemFS charged through;
// reports and benchmarks know it by that name.)
type LocalCost struct {
	cfg     LocalCostConfig
	ns      Bare
	store   *disk.Store
	opFree  *localOp // free list of call states (single-threaded under the DES)
	opsMade int      // states ever allocated; all are on opFree when idle
}

var _ FileSystem = (*LocalCost)(nil)

// NewLocalCost returns the local file system over namespace ns, whose disk
// arm is a resource of env.
func NewLocalCost(env *sim.Env, cfg LocalCostConfig, ns *MemFS) *LocalCost {
	return &LocalCost{
		cfg:   cfg,
		ns:    ns.Bare(),
		store: disk.NewStore(env, cfg.Disk, cfg.CacheBlocks, cfg.WriteThrough),
	}
}

// Cache exposes the block cache for inspection by tests and reports.
func (lc *LocalCost) Cache() *cache.LRU { return lc.store.Cache() }

// Idle returns an error while the disk arm is held or has callers queued,
// or while fewer call states are on the free list than the local file
// system made: a call in flight, or one that never released the arm or
// recycled its state.
func (lc *LocalCost) Idle() error {
	if err := lc.store.Idle(); err != nil {
		return fmt.Errorf("vfs: the local file system's %w", err)
	}
	free := 0
	for op := lc.opFree; op != nil; op = op.next {
		free++
	}
	if n := lc.opsMade - free; n != 0 {
		return fmt.Errorf("vfs: %d of the local file system's %d call states are not on its free list", n, lc.opsMade)
	}
	return nil
}

// metaKind names the namespace call a metadata call makes after its charge.
type metaKind uint8

const (
	metaMkdir metaKind = iota
	metaCreate
	metaOpen
	metaClose
	metaUnlink
	metaStat
	metaReadDir
)

// localOp is the defunctionalized state of one LocalCost call: a metadata
// call's kind, arguments and typed continuation, or a read's or write's
// cache walk, disk pass and byte count. It binds one continuation when it
// is first allocated, which runs the pending step, and a hold or acquire
// sets that step from a method expression. The state is recycled through
// the LocalCost's free list before the caller's continuation runs, so a
// call holds one state and a steady-state call allocates nothing. The
// schedule points (hold durations, acquire order) are the ones of the
// closures it replaced, so event order, and every rendered byte, is
// unchanged.
type localOp struct {
	lc   *LocalCost
	next *localOp // free list link
	ctx  Ctx

	// A metadata call.
	kind  metaKind
	path  string
	mode  OpenMode
	fd    FD
	kErr  func(error)
	kFD   func(FD, error)
	kInfo func(FileInfo, error)
	kDir  func([]string, error)

	// A read or write of n bytes of inode ino: blocks first to last, the
	// walk at block b, and the blocks that go to disk.
	ino            uint64
	n              int64
	first, last, b int64
	toDisk         int64
	write          bool
	kN             func(int64, error)

	step     func(*localOp) // what the pending continuation runs
	resumeFn func()         // op.resume, bound once when the state is made
}

// getOp pops a recycled call state or allocates one, binding its
// continuation once.
func (lc *LocalCost) getOp(ctx Ctx) *localOp {
	op := lc.opFree
	if op == nil {
		op = &localOp{lc: lc}
		op.resumeFn = op.resume //wlint:allow hotalloc once per state made; the free list reuses it for every call
		lc.opsMade++
	} else {
		lc.opFree = op.next
	}
	op.ctx = ctx
	return op
}

// putOp returns a finished call state to the free list, dropping its
// references to the caller and its step.
func (lc *LocalCost) putOp(op *localOp) {
	op.ctx, op.path, op.step = nil, "", nil
	op.kErr, op.kFD, op.kInfo, op.kDir, op.kN = nil, nil, nil, nil, nil
	op.next = lc.opFree
	lc.opFree = op
}

// resume runs the pending step.
func (op *localOp) resume() { op.step(op) }

// then returns the state's one continuation, set to run step.
func (op *localOp) then(step func(*localOp)) func() {
	op.step = step
	return op.resumeFn
}

// Mkdir creates a directory. Parents must already exist.
func (lc *LocalCost) Mkdir(ctx Ctx, path string, k func(error)) {
	op := lc.getOp(ctx)
	op.kind, op.path, op.kErr = metaMkdir, path, k
	ctx.Hold(lc.cfg.MetaTime, op.then((*localOp).meta))
}

// Create creates (or truncates) a regular file and opens it write-only.
func (lc *LocalCost) Create(ctx Ctx, path string, k func(FD, error)) {
	op := lc.getOp(ctx)
	op.kind, op.path, op.kFD = metaCreate, path, k
	ctx.Hold(lc.cfg.MetaTime, op.then((*localOp).meta))
}

// Open opens an existing regular file.
func (lc *LocalCost) Open(ctx Ctx, path string, mode OpenMode, k func(FD, error)) {
	op := lc.getOp(ctx)
	op.kind, op.path, op.mode, op.kFD = metaOpen, path, mode, k
	ctx.Hold(lc.cfg.MetaTime, op.then((*localOp).meta))
}

// Close releases the descriptor.
func (lc *LocalCost) Close(ctx Ctx, fd FD, k func(error)) {
	op := lc.getOp(ctx)
	op.kind, op.fd, op.kErr = metaClose, fd, k
	ctx.Hold(lc.cfg.MetaTime, op.then((*localOp).meta))
}

// Unlink removes a file name. Data reachable through open descriptors
// survives until they close.
func (lc *LocalCost) Unlink(ctx Ctx, path string, k func(error)) {
	op := lc.getOp(ctx)
	op.kind, op.path, op.kErr = metaUnlink, path, k
	ctx.Hold(lc.cfg.MetaTime, op.then((*localOp).meta))
}

// Stat returns metadata for a path.
func (lc *LocalCost) Stat(ctx Ctx, path string, k func(FileInfo, error)) {
	op := lc.getOp(ctx)
	op.kind, op.path, op.kInfo = metaStat, path, k
	ctx.Hold(lc.cfg.MetaTime, op.then((*localOp).meta))
}

// ReadDir lists a directory in lexical order.
func (lc *LocalCost) ReadDir(ctx Ctx, path string, k func([]string, error)) {
	op := lc.getOp(ctx)
	op.kind, op.path, op.kDir = metaReadDir, path, k
	ctx.Hold(lc.cfg.MetaTime, op.then((*localOp).meta))
}

// meta makes a metadata call's namespace call once its charge is paid. The
// state is copied out and recycled first: the continuation may start the
// next call at once and reuse it. A successful Create or Unlink drops the
// inode's cached blocks (a new file has none: inode numbers are never
// reused).
func (op *localOp) meta() {
	st, lc := *op, op.lc
	lc.putOp(op)
	switch st.kind {
	case metaMkdir:
		st.kErr(lc.ns.Mkdir(st.path))
	case metaCreate:
		fd, ino, err := lc.ns.Create(st.path, nil)
		if err == nil {
			lc.store.Cache().InvalidateFile(ino)
		}
		st.kFD(fd, err)
	case metaOpen:
		st.kFD(lc.ns.Open(st.path, st.mode, nil))
	case metaClose:
		st.kErr(lc.ns.Close(st.fd, nil))
	case metaUnlink:
		ino, err := lc.ns.Unlink(st.path)
		if err == nil {
			lc.store.Cache().InvalidateFile(ino)
		}
		st.kErr(err)
	case metaStat:
		st.kInfo(lc.ns.Stat(st.path))
	case metaReadDir:
		st.kDir(lc.ns.ReadDir(st.path))
	}
}

// Read transfers up to n bytes from the descriptor's current offset.
func (lc *LocalCost) Read(ctx Ctx, fd FD, n int64, k func(int64, error)) {
	ino, _, off, m, err := lc.ns.Advance(fd, n, false, nil)
	lc.transfer(ctx, ino, off, m, false, err, k)
}

// Write transfers n bytes at the descriptor's current offset, extending the
// file as needed.
func (lc *LocalCost) Write(ctx Ctx, fd FD, n int64, k func(int64, error)) {
	ino, _, off, m, err := lc.ns.Advance(fd, n, true, nil)
	lc.transfer(ctx, ino, off, m, true, err, k)
}

// transfer charges a read or write of the n bytes at off that the
// descriptor has already advanced over, then delivers n. An error or an
// empty transfer delivers at once and charges nothing. Each block that
// stays in the cache (a read hit, or a write under write-behind) costs a
// memory copy; a block that goes to disk (a read miss, or any write under
// write-through) costs none. The walk holds between cache touches, so
// concurrent processes interleave with this one block by block, and the
// blocks that go to disk do so in one pass at the end.
func (lc *LocalCost) transfer(ctx Ctx, ino uint64, off, n int64, write bool, err error, k func(int64, error)) {
	if err != nil || n == 0 {
		k(0, err)
		return
	}
	op := lc.getOp(ctx)
	op.ino, op.n, op.write, op.kN = ino, n, write, k
	bs := lc.cfg.Disk.BlockSize
	op.first = off / bs
	op.last = (off + n - 1) / bs
	op.b = op.first
	op.toDisk = 0
	op.walk()
}

// Seek repositions the descriptor's offset. It charges nothing: a seek is
// offset bookkeeping with no I/O.
func (lc *LocalCost) Seek(_ Ctx, fd FD, offset int64, whence int, k func(int64, error)) {
	k(lc.ns.Seek(fd, offset, whence, nil))
}

// walk touches blocks through the store until one stays in the cache,
// whose memory copy it holds for, or the op runs out; then it makes one
// disk pass for the blocks that go to disk.
func (op *localOp) walk() {
	for op.b <= op.last {
		b := op.b
		op.b++
		if op.lc.store.Touch(op.ino, b, op.write) {
			op.toDisk++
			continue
		}
		op.ctx.Hold(op.lc.cfg.HitPerBlock, op.then((*localOp).walk))
		return
	}
	if op.toDisk == 0 {
		op.done()
		return
	}
	Acquire(op.ctx, op.lc.store.Disk(), op.then((*localOp).acquired))
}

// acquired holds for the disk pass once the arm is granted. The arm moves
// only here, after the grant, so its seek state follows the grant order.
func (op *localOp) acquired() {
	op.ctx.Hold(op.lc.store.Service(op.ino, op.first, op.toDisk), op.then((*localOp).released))
}

// released releases the arm and completes the op.
func (op *localOp) released() {
	Release(op.ctx, op.lc.store.Disk())
	op.done()
}

// done recycles the state and delivers the byte count. The state is
// released first: k may immediately start another call on this LocalCost
// and reuse it.
func (op *localOp) done() {
	lc, n, k := op.lc, op.n, op.kN
	lc.putOp(op)
	k(n, nil)
}
