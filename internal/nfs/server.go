// Package nfs simulates the SUN Network File System setup of the thesis's
// experiments: diskless-style SUN 3/50 clients whose files all live on a
// SUN 4/490 file server, reached over a shared Ethernet. It substitutes for
// the real testbed; the response-time behaviour the thesis measures (linear
// growth with concurrent users at zero think time, flattening with think
// time, per-byte cost amortized by larger access sizes) emerges here from
// queueing at the shared nfsd pool, disk, and wire.
//
// The Client implements vfs.FileSystem, so the User Simulator drives NFS
// exactly as it drives a local file system — the portability property the
// thesis's model is designed around. In the DES→workload→trace→analysis
// pipeline this is the largest DES-stage component: the contended system
// under test whose queueing the downstream analysis measures.
package nfs

import (
	"fmt"

	"uswg/internal/cache"
	"uswg/internal/disk"
	"uswg/internal/sim"
	"uswg/internal/vfs"
)

// ServerConfig parameterizes the simulated file server.
type ServerConfig struct {
	// NFSDs is the number of server daemons (concurrent RPCs in service).
	NFSDs int
	// Disk is the server's drive model.
	Disk disk.Model
	// CacheBlocks is the server block cache capacity (0 disables caching).
	CacheBlocks int
	// CPUPerCall is the server CPU time to process one RPC, µs.
	CPUPerCall float64
	// CPUPerBlock is the server CPU time per data block moved, µs.
	CPUPerBlock float64
	// WriteThrough forces every written block to disk before the RPC
	// replies. NFSv2 semantics require it; switching it off models a
	// server with NVRAM or an Andrew-style delayed-write server.
	WriteThrough bool
}

// DefaultServerConfig resembles a SUN 4/490 class server: 4 nfsds, an 8 MB
// block cache (2048 x 4 KiB), and NFSv2 write-through.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		NFSDs:        4,
		Disk:         disk.Default(),
		CacheBlocks:  2048,
		CPUPerCall:   300,
		CPUPerBlock:  60,
		WriteThrough: true,
	}
}

// Validate reports whether the configuration is usable.
func (c ServerConfig) Validate() error {
	if c.NFSDs < 1 {
		return fmt.Errorf("nfs: NFSDs %d must be at least 1", c.NFSDs)
	}
	if c.CPUPerCall < 0 || c.CPUPerBlock < 0 {
		return fmt.Errorf("nfs: negative CPU cost in %+v", c)
	}
	if c.CacheBlocks < 0 {
		return fmt.Errorf("nfs: negative cache size %d", c.CacheBlocks)
	}
	return c.Disk.Validate()
}

// Server is the simulated file server: a pool of nfsd daemons in front of a
// block cache and one disk arm. When constructed without a DES environment
// it charges service times without queueing (useful in unit tests).
type Server struct {
	cfg     ServerConfig
	nfsd    *sim.Resource // nil outside a DES
	diskRes *sim.Resource // nil outside a DES
	arm     *disk.Arm
	cache   *cache.LRU
	staller Staller

	// pool is the free list of callStates (guarded by the DES scheduler:
	// exactly one simulated process runs at a time). callsMade counts the
	// states ever made; all are on pool when idle.
	pool      []*callState
	callsMade int

	calls     int64
	dataCalls int64
	stalls    int64
	stallTime float64
	restarts  int64
}

// Staller injects server-side stalls: the extra µs the serving nfsd holds a
// call (garbage collection, a paging storm, a wedged disk driver). The stall
// happens while the daemon is held, so concurrent clients queue behind it —
// exactly how one sick server degrades every workstation that mounts it.
// The fault engine (package fault) implements it; nil means a healthy server.
type Staller interface {
	Stall(now float64) float64
}

// NewServer returns a server. env may be nil, in which case RPCs are charged
// without contention.
func NewServer(env *sim.Env, cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		arm:   disk.NewArm(cfg.Disk),
		cache: cache.NewLRU(cfg.CacheBlocks),
	}
	if env != nil {
		s.nfsd = sim.NewResource(env, cfg.NFSDs)
		s.diskRes = sim.NewResource(env, 1)
	}
	return s, nil
}

// SetStaller attaches a stall source. Call before the measured run.
func (s *Server) SetStaller(st Staller) { s.staller = st }

// Stalls returns the number of stalled calls.
func (s *Server) Stalls() int64 { return s.stalls }

// StallTime returns the total stall time injected, µs.
func (s *Server) StallTime() float64 { return s.stallTime }

// stall returns the extra service time for this call.
func (s *Server) stall(ctx vfs.Ctx) float64 {
	if s.staller == nil {
		return 0
	}
	d := s.staller.Stall(ctx.Now())
	if d > 0 {
		s.stalls++
		s.stallTime += d
	}
	return d
}

// Cache exposes the block cache for inspection.
func (s *Server) Cache() *cache.LRU { return s.cache }

// Calls returns the total number of RPCs served.
func (s *Server) Calls() int64 { return s.calls }

// DataCalls returns the number of read/write RPCs served.
func (s *Server) DataCalls() int64 { return s.dataCalls }

// NFSDUtilization returns the time-averaged utilization of the daemon pool
// (0 outside a DES).
func (s *Server) NFSDUtilization() float64 {
	if s.nfsd == nil {
		return 0
	}
	return s.nfsd.Utilization()
}

// MeanNFSDWait returns the mean queueing delay for a daemon (0 outside a DES).
func (s *Server) MeanNFSDWait() float64 {
	if s.nfsd == nil {
		return 0
	}
	return s.nfsd.MeanWait()
}

// rel releases an acquired resource (nil-safe).
func rel(held *sim.Resource) {
	if held != nil {
		held.Release()
	}
}

// callState carries one in-flight RPC's service state through the daemon
// pool, CPU holds, block cache, and disk arm. States are pooled per server
// and bind one continuation when made, which runs the pending step (the
// same idiom as the client's opState): serving an RPC allocates nothing in
// steady state. The DES runs one process at a time, so the free list needs
// no lock; each concurrent call in service (up to NFSDs, plus queued
// callers) holds its own state.
type callState struct {
	s     *Server
	ctx   vfs.Ctx
	ino   uint64
	off   int64
	n     int64
	write bool
	k     func()

	nfsd *sim.Resource // held daemon slot (nil outside a DES)
	disk *sim.Resource // held disk arm (nil until acquired)

	first      int64
	missBlocks int64

	step     func(*callState) // what the pending continuation runs
	resumeFn func()           // st.resume, bound once when the state is made
}

// getCall pops a pooled call state (or makes one, binding its continuation).
func (s *Server) getCall(ctx vfs.Ctx) *callState {
	var st *callState
	if n := len(s.pool); n > 0 {
		st = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else {
		st = &callState{s: s}
		st.resumeFn = st.resume //wlint:allow hotalloc once per state made; the pool reuses it for every call
		s.callsMade++
	}
	st.ctx = ctx
	return st
}

// putCall returns a finished call state to the pool, dropping the step.
func (s *Server) putCall(st *callState) {
	st.ctx = nil
	st.step = nil
	st.k = nil
	st.nfsd = nil
	st.disk = nil
	s.pool = append(s.pool, st)
}

// resume runs the pending step.
func (st *callState) resume() { st.step(st) }

// then returns the state's one continuation, set to run step.
func (st *callState) then(step func(*callState)) func() {
	st.step = step
	return st.resumeFn
}

// MetaCall serves a metadata RPC (lookup, getattr, create, remove, ...),
// then runs k.
func (s *Server) MetaCall(ctx vfs.Ctx, k func()) {
	s.calls++
	st := s.getCall(ctx)
	st.k = k
	if p, ok := ctx.(*sim.Proc); ok && s.nfsd != nil {
		st.nfsd = s.nfsd
		s.nfsd.Acquire(p, st.then((*callState).metaGranted))
		return
	}
	st.metaGranted()
}

// metaGranted runs once a daemon slot is held (or immediately outside a DES).
func (st *callState) metaGranted() {
	s := st.s
	st.ctx.Hold(s.cfg.CPUPerCall+s.stall(st.ctx), st.then((*callState).finish))
}

// DataCall serves a read or write RPC of n bytes at offset off of inode ino,
// then runs k. Reads miss to disk through the block cache; writes go through
// the cache and, under write-through, to disk before the RPC completes.
func (s *Server) DataCall(ctx vfs.Ctx, ino uint64, off, n int64, write bool, k func()) {
	s.calls++
	s.dataCalls++
	st := s.getCall(ctx)
	st.ino, st.off, st.n, st.write, st.k = ino, off, n, write, k
	if p, ok := ctx.(*sim.Proc); ok && s.nfsd != nil {
		st.nfsd = s.nfsd
		s.nfsd.Acquire(p, st.then((*callState).dataGranted))
		return
	}
	st.dataGranted()
}

// dataGranted charges the per-call CPU once a daemon slot is held.
func (st *callState) dataGranted() {
	s := st.s
	nblocks := s.cfg.Disk.Blocks(st.off, st.n)
	st.ctx.Hold(s.cfg.CPUPerCall+float64(nblocks)*s.cfg.CPUPerBlock+s.stall(st.ctx), st.then((*callState).dataServe))
}

// dataServe walks the blocks through the cache and goes to disk for misses
// (and, under write-through, for every written block).
func (st *callState) dataServe() {
	s := st.s
	if st.n <= 0 {
		st.finish()
		return
	}
	bs := s.cfg.Disk.BlockSize
	first := st.off / bs
	last := (st.off + st.n - 1) / bs
	var missBlocks int64
	for b := first; b <= last; b++ {
		id := cache.BlockID{File: st.ino, Block: b}
		if st.write {
			s.cache.Access(id)
			if s.cfg.WriteThrough {
				missBlocks++ // every written block goes to disk
			}
			continue
		}
		if !s.cache.Access(id) {
			missBlocks++
		}
	}
	if missBlocks == 0 {
		st.finish()
		return
	}
	st.first, st.missBlocks = first, missBlocks
	if p, ok := st.ctx.(*sim.Proc); ok && s.diskRes != nil {
		st.disk = s.diskRes
		s.diskRes.Acquire(p, st.then((*callState).diskGranted))
		return
	}
	st.diskGranted()
}

// diskGranted seeks and transfers the missing blocks once the arm is held.
func (st *callState) diskGranted() {
	s := st.s
	bs := s.cfg.Disk.BlockSize
	// Files are separated by 2^20 blocks so distinct files never look
	// sequential to the arm.
	fileBase := int64(st.ino) << 20
	st.ctx.Hold(s.arm.Access(fileBase, st.first*bs, st.missBlocks*bs), st.then((*callState).diskDone))
}

// diskDone releases the arm and completes the RPC.
func (st *callState) diskDone() {
	rel(st.disk)
	st.finish()
}

// finish releases the daemon and delivers the reply.
func (st *callState) finish() {
	rel(st.nfsd)
	k := st.k
	st.s.putCall(st)
	k()
}

// Restart models the server coming back from a crash: all daemon state is
// gone, which for this model means the block cache empties (the committed
// file state itself is on disk and survives — NFSv2's write-through is what
// makes a stateless restart safe). Calls already in service complete; NFS
// servers kept no per-client state to lose, so recovery is entirely the
// clients' retransmission problem. Hit/miss statistics survive the restart.
func (s *Server) Restart() {
	s.cache.Reset()
	s.restarts++
}

// Restarts returns the number of times the server has been restarted.
func (s *Server) Restarts() int64 { return s.restarts }

// Invalidate drops an inode's cached blocks (file truncated or removed).
func (s *Server) Invalidate(ino uint64) {
	s.cache.InvalidateFile(ino)
}
