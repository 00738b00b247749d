package nfs

import (
	"fmt"

	"uswg/internal/cache"
	"uswg/internal/netsim"
	"uswg/internal/sim"
	"uswg/internal/vfs"
)

// ClientConfig parameterizes the simulated NFS client (the SUN 3/50
// workstation side).
type ClientConfig struct {
	// Net is the link model used when the client is constructed without a
	// shared Link (and for charging outside a DES).
	Net netsim.Config
	// WireBlock is the maximum data bytes per read/write RPC. NFSv2 used
	// 8 KiB transfers.
	WireBlock int64
	// HeaderBytes is the RPC/XDR header size added to every message.
	HeaderBytes int64
	// CPUPerCall is client CPU time per system call, µs.
	CPUPerCall float64
	// AttrCacheTimeout is how long a cached attribute entry satisfies
	// lookups/getattrs without an RPC, µs (0 disables the cache).
	AttrCacheTimeout float64
	// DirEntryBytes is the per-name payload charged for readdir replies.
	DirEntryBytes int64

	// CacheBlocks is the client page cache capacity in WireBlock-sized
	// blocks (0 disables client data caching). SunOS clients cached file
	// pages; without this every read and write is a synchronous RPC.
	CacheBlocks int
	// HitPerBlock is the memory-copy cost of a client-cached block, µs.
	HitPerBlock float64
	// WriteBehind makes writes complete into the client cache, with dirty
	// blocks flushed by write RPCs on close (close-to-open consistency)
	// or when MaxDirtyBlocks accumulate — the biod behaviour. When false,
	// every write is a synchronous RPC.
	WriteBehind bool
	// MaxDirtyBlocks bounds unflushed dirty data per client (0 means 8,
	// roughly the in-flight window of a 3/50's biod pool).
	MaxDirtyBlocks int
}

// DefaultClientConfig resembles a SUN 3/50 on 10 Mb/s Ethernet: 8 KiB wire
// transfers, 128-byte headers, 500 µs of client CPU per call, a 3-second
// attribute cache, and a 512 KiB page cache with write-behind (the SunOS
// client's biod behaviour). The 3/50 had 4 MB of total memory; its buffer
// cache was a fraction of that, which is what keeps steady-state miss
// traffic — and therefore server/wire contention — alive under load.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Net:              netsim.DefaultConfig(),
		WireBlock:        8192,
		HeaderBytes:      128,
		CPUPerCall:       500, // a 15 MHz 68020 through the syscall + NFS client path
		AttrCacheTimeout: 3e6,
		DirEntryBytes:    32,
		CacheBlocks:      64, // 512 KiB of 8 KiB pages, ~1/8 of a 3/50's RAM
		HitPerBlock:      50,
		WriteBehind:      true,
		MaxDirtyBlocks:   8, // ~64 KiB in flight, a small biod pool
	}
}

// Validate reports whether the configuration is usable.
func (c ClientConfig) Validate() error {
	if c.WireBlock <= 0 {
		return fmt.Errorf("nfs: wire block %d must be positive", c.WireBlock)
	}
	if c.HeaderBytes < 0 || c.CPUPerCall < 0 || c.AttrCacheTimeout < 0 || c.DirEntryBytes < 0 {
		return fmt.Errorf("nfs: negative parameter in %+v", c)
	}
	if c.CacheBlocks < 0 || c.HitPerBlock < 0 || c.MaxDirtyBlocks < 0 {
		return fmt.Errorf("nfs: negative cache parameter in %+v", c)
	}
	return c.Net.Validate()
}

// maxDirty returns the dirty-block flush threshold with its default.
func (c ClientConfig) maxDirty() int {
	if c.MaxDirtyBlocks > 0 {
		return c.MaxDirtyBlocks
	}
	return 8
}

// Client is a simulated NFS client implementing vfs.FileSystem. The file
// namespace and sizes live in a cost-free MemFS shadow; all time comes from
// client CPU, the shared wire, and the server. The shadow's descriptor table
// is also the client's: every descriptor the client opens is tagged with the
// client as its owner, and reads and writes resolve it there in one lookup.
//
// A Client is not safe for concurrent use: like its MemFS shadow, it runs
// on one goroutine, the DES kernel's or a synchronous setup clock's, where
// exactly one simulated process runs at a time.
type Client struct {
	cfg     ClientConfig
	backing *vfs.MemFS
	server  *Server
	link    *netsim.Link // nil outside a DES

	attrs map[string]float64 // path -> expiry time, µs

	// Client page cache (nil when CacheBlocks is 0).
	pages       *cache.LRU
	dirty       map[uint64]dirtySpan // unflushed write-behind data by inode
	dirtyBlocks int64                // sum of the dirty spans' blocks

	// ops is the per-client free list of pooled op states. Steady state
	// keeps every call, its page walk and its RPCs allocation-free: each
	// opState binds its one continuation when it is made and is reused.
	// opsMade counts the states ever made; all are on ops when idle.
	ops     []*opState
	opsMade int

	rpcs    int64
	flushes int64
}

// opState carries one in-flight system call's state. Profiles showed the
// per-call continuation closures (system-call entry holds, the page walk,
// the fetch loop, and their captured variables) dominating per-op
// allocations; pooling the state cuts that to zero in steady state. A
// state binds one continuation when it is made, resumeFn, which runs the
// pending step; a site that hands a continuation to another layer sets
// the step from a method expression (st.then((*opState).walk)), which
// allocates nothing. A call is one linear chain of steps, each of which
// finishes or makes exactly one blocking call, so one step field suffices.
// Every vfs.FileSystem entry point takes one state from the pool, runs
// every RPC of the call on it (metadata RPCs, fetches, write-through
// pushes and flushes alike), and recycles it immediately before
// delivering its result, so a call holds exactly one state.
type opState struct {
	c   *Client
	ctx vfs.Ctx
	ino uint64

	// System-call entry state.
	fd       vfs.FD
	n        int64
	path     string
	mode     vfs.OpenMode
	skOff    int64
	skWhence int
	names    []string // ReadDir's listing, held across the RPC
	kFD      func(vfs.FD, error)
	kInfo    func(vfs.FileInfo, error)
	kErr     func(error)
	kNames   func([]string, error)

	// Metadata RPC state: the reply's payload bytes and the completion.
	mReply int64
	mK     func(*opState)

	// Write entry state: the install loop's block cursor and the span
	// bookkeeping inputs.
	wB, wLast int64
	wOff      int64
	wPath     string

	// Page-walk state (Read through the client page cache).
	bs        int64
	last      int64
	b         int64
	hitBlk    int64
	missStart int64
	got       int64
	k         func(int64, error) // Read's/Write's completion

	// Transfer-loop state (fetch and push share the chunked RPC loop).
	xOff, xN, xDone int64
	curOff, curN    int64
	write           bool
	after           func(*opState) // runs when the transfer loop completes

	step     func(*opState) // what the pending continuation runs
	resumeFn func()         // st.resume, bound once when the state is made
}

// getOp pops a pooled op state (or makes one, binding its continuation).
func (c *Client) getOp(ctx vfs.Ctx) *opState {
	var st *opState
	if n := len(c.ops); n > 0 {
		st = c.ops[n-1]
		c.ops = c.ops[:n-1]
	} else {
		st = &opState{c: c}
		st.resumeFn = st.resume //wlint:allow hotalloc once per state made; the pool reuses it for every call
		c.opsMade++
	}
	st.ctx = ctx
	return st
}

// putOp returns a finished op state to the pool, dropping caller references
// and the step, so a continuation fired after recycling panics at once.
func (c *Client) putOp(st *opState) {
	st.ctx = nil
	st.step = nil
	st.k = nil
	st.kFD = nil
	st.kInfo = nil
	st.kErr = nil
	st.kNames = nil
	st.names = nil
	c.ops = append(c.ops, st)
}

// resume runs the pending step.
func (st *opState) resume() { st.step(st) }

// then returns the state's one continuation, set to run step.
func (st *opState) then(step func(*opState)) func() {
	st.step = step
	return st.resumeFn
}

// walk scans the request's blocks: cache hits cost a memory copy, runs of
// misses become wire-block read RPCs, and the walk resumes after each run.
func (st *opState) walk() {
	c := st.c
	for st.b <= st.last {
		blk := st.b
		st.b++
		if c.pages.Access(cache.BlockID{File: st.ino, Block: blk}) {
			st.hitBlk = blk
			st.ctx.Hold(c.cfg.HitPerBlock, st.then((*opState).hit))
			return
		}
		if st.missStart < 0 {
			st.missStart = blk
		}
	}
	if ms := st.missStart; ms >= 0 {
		st.startTransfer(ms*st.bs, (st.last-ms+1)*st.bs, false, (*opState).done)
		return
	}
	st.done()
}

// hit runs after a cache hit's memory-copy hold: flush the pending miss run
// (resuming the walk afterwards), or continue walking directly.
func (st *opState) hit() {
	if ms := st.missStart; ms >= 0 {
		st.missStart = -1
		st.startTransfer(ms*st.bs, (st.hitBlk-ms)*st.bs, false, (*opState).walk)
		return
	}
	st.walk()
}

// done completes a Read or a Write: it recycles the state and delivers the
// byte count.
func (st *opState) done() {
	k, got := st.k, st.got
	st.c.putOp(st)
	k(got, nil)
}

// startTransfer begins the chunked RPC loop: a fetch (write=false) or push
// (write=true) of n bytes at off, running after on completion.
func (st *opState) startTransfer(off, n int64, write bool, after func(*opState)) {
	st.xOff, st.xN, st.xDone, st.write, st.after = off, n, 0, write, after
	st.loop()
}

// loop issues one wire-block RPC per iteration until the transfer is done.
func (st *opState) loop() {
	if st.xDone >= st.xN {
		st.after(st)
		return
	}
	chunk := st.xN - st.xDone
	if chunk > st.c.cfg.WireBlock {
		chunk = st.c.cfg.WireBlock
	}
	st.curOff = st.xOff + st.xDone
	st.curN = chunk
	st.xDone += chunk
	st.c.rpcs++
	if st.write {
		st.c.xfer(st.ctx, st.curN, st.then((*opState).req)) // data-bearing request
		return
	}
	st.c.xfer(st.ctx, 0, st.then((*opState).req)) // small request
}

// req runs when the request reaches the server.
func (st *opState) req() {
	st.c.server.DataCall(st.ctx, st.ino, st.curOff, st.curN, st.write, st.then((*opState).rep))
}

// rep sends the reply back: data-bearing for reads, small for writes.
func (st *opState) rep() {
	if st.write {
		st.c.xfer(st.ctx, 0, st.then((*opState).loop))
		return
	}
	st.c.xfer(st.ctx, st.curN, st.then((*opState).loop))
}

// dirtySpan is a contiguous byte range of unflushed write-behind data.
// Sequential access (§4.2) keeps one span per file sufficient.
type dirtySpan struct {
	lo, hi int64
}

// blocks returns how many wire blocks of size bs the span touches. The
// client keeps the sum over its spans in dirtyBlocks, adjusting it wherever
// a span is installed, widened, flushed or discarded.
func (s dirtySpan) blocks(bs int64) int64 {
	return (s.hi-1)/bs - s.lo/bs + 1
}

var _ vfs.FileSystem = (*Client)(nil)

// newClient returns a client of server over link whose namespace shadow is
// backing, from arguments its caller has already checked: a valid cfg and a
// non-nil server and backing. Several clients sharing one backing model the
// thesis's testbed — one SUN 3/50 workstation per user, each with its own
// page and attribute caches, all mounting the same server over the same
// wire. link may be nil (outside a DES, or for an uncontended wire), in
// which case wire time is charged from cfg.Net without queueing.
func newClient(server *Server, link *netsim.Link, cfg ClientConfig, backing *vfs.MemFS) *Client {
	c := &Client{
		cfg:     cfg,
		backing: backing,
		server:  server,
		link:    link,
		attrs:   make(map[string]float64),
		dirty:   make(map[uint64]dirtySpan),
	}
	if cfg.CacheBlocks > 0 {
		c.pages = cache.NewLRU(cfg.CacheBlocks)
	}
	return c
}

// RPCs returns the number of RPCs this client has issued.
func (c *Client) RPCs() int64 { return c.rpcs }

// Pages exposes the client page cache for inspection (nil when disabled).
func (c *Client) Pages() *cache.LRU { return c.pages }

// Flushes returns the number of write-behind flushes performed.
func (c *Client) Flushes() int64 { return c.flushes }

// xfer moves n payload bytes (plus the header) across the wire, then runs k.
func (c *Client) xfer(ctx vfs.Ctx, n int64, k func()) {
	total := n + c.cfg.HeaderBytes
	if p, ok := ctx.(*sim.Proc); ok && c.link != nil {
		c.link.Transfer(p, total, k)
		return
	}
	ctx.Hold(c.cfg.Net.LatencyPerMessage+float64(total)*c.cfg.Net.PerByte, k)
}

// rpcMeta performs a metadata RPC on the call's own state: a small request,
// the server's metadata work, and a reply carrying reply payload bytes,
// then runs k.
func (st *opState) rpcMeta(reply int64, k func(*opState)) {
	st.c.rpcs++
	st.mReply, st.mK = reply, k
	st.c.xfer(st.ctx, 0, st.then((*opState).metaReq))
}

// metaReq runs when the metadata request reaches the server.
func (st *opState) metaReq() { st.c.server.MetaCall(st.ctx, st.then((*opState).metaRep)) }

// metaRep sends the reply back.
func (st *opState) metaRep() { st.c.xfer(st.ctx, st.mReply, st.then(st.mK)) }

func (c *Client) attrFresh(ctx vfs.Ctx, path string) bool {
	if c.cfg.AttrCacheTimeout <= 0 {
		return false
	}
	expiry, ok := c.attrs[path]
	return ok && ctx.Now() < expiry
}

func (c *Client) setAttr(ctx vfs.Ctx, path string) {
	if c.cfg.AttrCacheTimeout <= 0 {
		return
	}
	c.attrs[path] = ctx.Now() + c.cfg.AttrCacheTimeout
}

func (c *Client) dropAttr(path string) { delete(c.attrs, path) }

// shadow is the cost-free call-and-return facade over the backing
// namespace. The client charges through its own RPC accounting, so shadow
// operations are pure bookkeeping and never suspend.
func (c *Client) shadow() vfs.Bare { return c.backing.Bare() }

// Mkdir creates a directory on the server. Pooled like the data ops: the
// FSC's build path issues one Mkdir per directory, and the per-call closure
// pair dominated large-population construction profiles.
func (c *Client) Mkdir(ctx vfs.Ctx, path string, k func(error)) {
	st := c.getOp(ctx)
	st.path, st.kErr = path, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).mkdirEntry))
}

// mkdirEntry runs after Mkdir's CPU hold.
func (st *opState) mkdirEntry() { st.rpcMeta(0, (*opState).mkdirRPC) }

// mkdirRPC runs after the mkdir RPC's reply.
func (st *opState) mkdirRPC() {
	c, ctx, path, k := st.c, st.ctx, st.path, st.kErr
	c.putOp(st)
	if err := c.shadow().Mkdir(path); err != nil {
		k(err)
		return
	}
	c.setAttr(ctx, path)
	k(nil)
}

// Create creates (or truncates) a file on the server and opens it.
func (c *Client) Create(ctx vfs.Ctx, path string, k func(vfs.FD, error)) {
	st := c.getOp(ctx)
	st.path, st.kFD = path, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).createEntry))
}

// createEntry runs after Create's CPU hold.
func (st *opState) createEntry() { st.rpcMeta(0, (*opState).createRPC) }

// createRPC runs after the create RPC's reply.
func (st *opState) createRPC() {
	c, ctx, path, k := st.c, st.ctx, st.path, st.kFD
	c.putOp(st)
	fd, ino, err := c.shadow().Create(path, c)
	if err != nil {
		k(0, err)
		return
	}
	c.server.Invalidate(ino) // truncation drops stale server blocks
	c.discardDirty(ino)
	c.setAttr(ctx, path)
	k(fd, nil)
}

// Open opens an existing file, issuing a lookup RPC unless the attribute
// cache is fresh.
func (c *Client) Open(ctx vfs.Ctx, path string, mode vfs.OpenMode, k func(vfs.FD, error)) {
	st := c.getOp(ctx)
	st.path, st.mode, st.kFD = path, mode, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).openEntry))
}

// openEntry runs after Open's CPU hold.
func (st *opState) openEntry() {
	if !st.c.attrFresh(st.ctx, st.path) {
		st.rpcMeta(0, (*opState).openRPC)
		return
	}
	st.openFinish()
}

// openRPC runs after the lookup RPC's reply.
func (st *opState) openRPC() {
	st.c.setAttr(st.ctx, st.path)
	st.openFinish()
}

// openFinish opens the shadow descriptor and delivers the result.
func (st *opState) openFinish() {
	c, path, mode, k := st.c, st.path, st.mode, st.kFD
	c.putOp(st)
	k(c.shadow().Open(path, mode, c))
}

// Read transfers up to n bytes. Blocks present in the client page cache are
// served at memory-copy cost; contiguous runs of missing blocks are fetched
// with wire-block read RPCs and installed in the cache.
func (c *Client) Read(ctx vfs.Ctx, fd vfs.FD, n int64, k func(int64, error)) {
	st := c.getOp(ctx)
	st.fd, st.n, st.k = fd, n, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).readEntry))
}

// readEntry runs after Read's CPU hold: move the shadow offset of this
// client's descriptor, and start the page walk (or a straight fetch) on
// this same state.
func (st *opState) readEntry() {
	c := st.c
	ino, _, off, got, err := c.shadow().Advance(st.fd, st.n, false, c)
	if err != nil || got == 0 {
		st.failData(err)
		return
	}
	st.ino = ino
	st.got = got
	if c.pages == nil {
		st.startTransfer(off, got, false, (*opState).done)
		return
	}
	st.bs = c.cfg.WireBlock
	st.b = off / st.bs
	st.last = (off + got - 1) / st.bs
	st.missStart = -1
	st.walk()
}

// failData completes a data op early (0 bytes), recycling the state.
func (st *opState) failData(err error) {
	k := st.k
	st.c.putOp(st)
	k(0, err)
}

// Write transfers n bytes. With write-behind, data lands in the client page
// cache at memory-copy cost and dirty blocks are flushed on close or when
// the dirty threshold is crossed; otherwise each wire block is a synchronous
// write RPC (NFSv2 semantics straight to the server's disk).
func (c *Client) Write(ctx vfs.Ctx, fd vfs.FD, n int64, k func(int64, error)) {
	st := c.getOp(ctx)
	st.fd, st.n, st.k = fd, n, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).writeEntry))
}

// writeEntry runs after Write's CPU hold: move the shadow offset of this
// client's descriptor and either push synchronously or install
// write-behind pages, all on this same state.
func (st *opState) writeEntry() {
	c := st.c
	ino, path, off, got, err := c.shadow().Advance(st.fd, st.n, true, c)
	if err != nil || got == 0 {
		st.failData(err)
		return
	}
	st.ino = ino
	st.got = got
	st.wOff = off
	st.wPath = path
	if c.pages == nil || !c.cfg.WriteBehind {
		st.startTransfer(off, got, true, (*opState).finishWrite)
		return
	}
	// Write-behind: install pages, extend the dirty span.
	bs := c.cfg.WireBlock
	st.wB = off / bs
	st.wLast = (off + got - 1) / bs
	st.install()
}

// finishWrite completes a synchronous (write-through) Write.
func (st *opState) finishWrite() {
	st.c.setAttr(st.ctx, st.wPath) // write replies carry fresh attributes
	st.done()
}

// install loops over the written blocks, charging a memory copy each, then
// updates the dirty span and flushes if the dirty threshold is crossed.
func (st *opState) install() {
	c := st.c
	if st.wB <= st.wLast {
		c.pages.Access(cache.BlockID{File: st.ino, Block: st.wB})
		st.wB++
		st.ctx.Hold(c.cfg.HitPerBlock, st.then((*opState).install))
		return
	}
	off, got := st.wOff, st.got
	span, ok := c.dirty[st.ino]
	if !ok {
		span = dirtySpan{lo: off, hi: off + got}
	} else {
		c.dirtyBlocks -= span.blocks(c.cfg.WireBlock)
		if off < span.lo {
			span.lo = off
		}
		if off+got > span.hi {
			span.hi = off + got
		}
	}
	c.dirty[st.ino] = span
	c.dirtyBlocks += span.blocks(c.cfg.WireBlock)
	if c.dirtyBlocks > int64(c.cfg.maxDirty()) {
		st.flush((*opState).done)
		return
	}
	st.done()
}

// flush writes the dirty span of the state's inode to the server with
// write RPCs on this state, drops it, and runs k.
func (st *opState) flush(k func(*opState)) {
	c := st.c
	span, ok := c.dirty[st.ino]
	if !ok {
		k(st)
		return
	}
	delete(c.dirty, st.ino)
	c.dirtyBlocks -= span.blocks(c.cfg.WireBlock)
	c.flushes++
	st.startTransfer(span.lo, span.hi-span.lo, true, k)
}

// discardDirty forgets unflushed data for an inode (truncate or unlink).
func (c *Client) discardDirty(ino uint64) {
	if span, ok := c.dirty[ino]; ok {
		delete(c.dirty, ino)
		c.dirtyBlocks -= span.blocks(c.cfg.WireBlock)
	}
	if c.pages != nil {
		c.pages.InvalidateFile(ino)
	}
}

// Crash models the workstation losing power: every open descriptor, cached
// attribute, cached page, and unflushed write-behind span vanishes instantly
// and without cost — nothing ran, so nothing is charged and no RPC is sent.
// The descriptors this client opened are released in the shadow namespace
// (the server's view: the crashed machine's handles are simply gone, and
// unlinked-but-open files become truly unreachable); dirty write-behind data
// is lost, exactly the exposure window NFS write-behind opens. The page
// cache keeps its hit/miss statistics but empties, so the rebooted user
// re-misses everything — the cold-cache rejoin cost. Implements vfs.Crasher.
func (c *Client) Crash() {
	c.attrs = make(map[string]float64)
	c.shadow().CloseOwned(c)
	c.dirty = make(map[uint64]dirtySpan)
	c.dirtyBlocks = 0
	if c.pages != nil {
		c.pages.Reset()
	}
}

var _ vfs.Crasher = (*Client)(nil)

// Seek repositions the client-side offset of a descriptor this client
// opened; NFS needs no RPC for it.
func (c *Client) Seek(ctx vfs.Ctx, fd vfs.FD, offset int64, whence int, k func(int64, error)) {
	st := c.getOp(ctx)
	st.fd, st.skOff, st.skWhence, st.k = fd, offset, whence, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).seekEntry))
}

// seekEntry runs after Seek's CPU hold.
func (st *opState) seekEntry() {
	c, fd, off, whence, k := st.c, st.fd, st.skOff, st.skWhence, st.k
	c.putOp(st)
	pos, err := c.shadow().Seek(fd, off, whence, c)
	k(pos, err)
}

// Close releases the descriptor, first flushing any write-behind data for
// the file (close-to-open consistency: the next opener must see the data on
// the server).
func (c *Client) Close(ctx vfs.Ctx, fd vfs.FD, k func(error)) {
	st := c.getOp(ctx)
	st.fd, st.kErr = fd, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).closeEntry))
}

// closeEntry runs after Close's CPU hold: if this client opened the
// descriptor, flush write-behind data, then release the shadow descriptor.
// Any other descriptor fails with ErrBadFD, with no RPC and no flush.
func (st *opState) closeEntry() {
	c := st.c
	if ino, path, ok := c.shadow().Owned(st.fd, c); ok {
		st.ino, st.wPath = ino, path
		st.flush((*opState).closeFlushed)
		return
	}
	st.closeFinish()
}

// closeFlushed runs after the close-time flush completes.
func (st *opState) closeFlushed() {
	st.c.setAttr(st.ctx, st.wPath)
	st.closeFinish()
}

// closeFinish releases the shadow descriptor and delivers the result.
func (st *opState) closeFinish() {
	c, fd, k := st.c, st.fd, st.kErr
	c.putOp(st)
	k(c.shadow().Close(fd, c))
}

// Unlink removes a file on the server.
func (c *Client) Unlink(ctx vfs.Ctx, path string, k func(error)) {
	st := c.getOp(ctx)
	st.path, st.kErr = path, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).unlinkEntry))
}

// unlinkEntry runs after Unlink's CPU hold.
func (st *opState) unlinkEntry() { st.rpcMeta(0, (*opState).unlinkRPC) }

// unlinkRPC runs after the unlink RPC's reply. The server and the client
// drop the blocks of the inode the shadow unlinked.
func (st *opState) unlinkRPC() {
	c, path, k := st.c, st.path, st.kErr
	c.putOp(st)
	ino, err := c.shadow().Unlink(path)
	if err != nil {
		k(err)
		return
	}
	c.server.Invalidate(ino)
	c.discardDirty(ino)
	c.dropAttr(path)
	k(nil)
}

// Stat returns metadata, issuing a getattr RPC unless the attribute cache is
// fresh.
func (c *Client) Stat(ctx vfs.Ctx, path string, k func(vfs.FileInfo, error)) {
	st := c.getOp(ctx)
	st.path, st.kInfo = path, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).statEntry))
}

// statEntry runs after Stat's CPU hold.
func (st *opState) statEntry() {
	if !st.c.attrFresh(st.ctx, st.path) {
		st.rpcMeta(0, (*opState).statRPC)
		return
	}
	st.statRPC()
}

// statRPC finishes a Stat (directly on a fresh attribute cache, or after
// the getattr RPC's reply).
func (st *opState) statRPC() {
	c, ctx, path, k := st.c, st.ctx, st.path, st.kInfo
	c.putOp(st)
	info, err := c.shadow().Stat(path)
	if err != nil {
		k(vfs.FileInfo{}, err)
		return
	}
	c.setAttr(ctx, path)
	k(info, nil)
}

// ReadDir lists a directory, charging a readdir RPC whose reply size scales
// with the number of entries.
func (c *Client) ReadDir(ctx vfs.Ctx, path string, k func([]string, error)) {
	st := c.getOp(ctx)
	st.path, st.kNames = path, k
	ctx.Hold(c.cfg.CPUPerCall, st.then((*opState).readdirEntry))
}

// readdirEntry runs after ReadDir's CPU hold: list the shadow namespace,
// then issue the readdir RPC, whose reply scales with the entries.
func (st *opState) readdirEntry() {
	c := st.c
	names, err := c.shadow().ReadDir(st.path)
	if err != nil {
		k := st.kNames
		c.putOp(st)
		k(nil, err)
		return
	}
	st.names = names
	st.rpcMeta(int64(len(names))*c.cfg.DirEntryBytes, (*opState).readdirFinish)
}

// readdirFinish delivers the listing and recycles the state.
func (st *opState) readdirFinish() {
	k, names := st.kNames, st.names
	st.c.putOp(st)
	k(names, nil)
}
