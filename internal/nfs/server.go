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
// storage stage (disk.Store), a block cache over one disk arm. It keeps no
// per-call state: its clients serve each RPC on the calling op state
// (opState.serveMeta and serveData), which reaches the server's daemons,
// store, staller and counters through its client. A call takes a daemon
// and, for blocks that go to disk, the arm through vfs.Acquire: it queues
// under the DES, and on a synchronous clock service is charged without
// queueing.
type Server struct {
	cfg     ServerConfig
	nfsd    *sim.Resource
	store   *disk.Store
	staller Staller

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

// NewServer returns a server whose daemons and disk arm are resources of
// env.
func NewServer(env *sim.Env, cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:   cfg,
		nfsd:  sim.NewResource(env, cfg.NFSDs),
		store: disk.NewStore(env, cfg.Disk, cfg.CacheBlocks, cfg.WriteThrough),
	}, nil
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
func (s *Server) Cache() *cache.LRU { return s.store.Cache() }

// Calls returns the total number of RPCs served.
func (s *Server) Calls() int64 { return s.calls }

// DataCalls returns the number of read/write RPCs served.
func (s *Server) DataCalls() int64 { return s.dataCalls }

// NFSDUtilization returns the time-averaged utilization of the daemon pool.
func (s *Server) NFSDUtilization() float64 { return s.nfsd.Utilization() }

// MeanNFSDWait returns the mean queueing delay for a daemon.
func (s *Server) MeanNFSDWait() float64 { return s.nfsd.MeanWait() }

// serveMeta serves a metadata RPC (lookup, getattr, create, remove, ...) on
// the calling op state, then runs next. An RPC is one linear chain (request,
// service, reply), so the server's steps share the state's one step field.
func (st *opState) serveMeta(next func(*opState)) {
	s := st.c.server
	s.calls++
	st.sNext = next
	vfs.Acquire(st.ctx, s.nfsd, st.then((*opState).metaGranted))
}

// metaGranted charges the per-call CPU once a daemon is held.
func (st *opState) metaGranted() {
	s := st.c.server
	st.ctx.Hold(s.cfg.CPUPerCall+s.stall(st.ctx), st.then((*opState).served))
}

// serveData serves a read or write RPC of the state's current chunk (curN
// bytes at curOff of inode ino), then runs next. Reads miss to disk through
// the store's cache; writes go through the cache and, under write-through,
// to disk before the RPC completes.
func (st *opState) serveData(next func(*opState)) {
	s := st.c.server
	s.calls++
	s.dataCalls++
	st.sNext = next
	vfs.Acquire(st.ctx, s.nfsd, st.then((*opState).dataGranted))
}

// dataGranted charges the per-call and per-block CPU once a daemon is held.
func (st *opState) dataGranted() {
	s := st.c.server
	nblocks := s.cfg.Disk.Blocks(st.curOff, st.curN)
	st.ctx.Hold(s.cfg.CPUPerCall+float64(nblocks)*s.cfg.CPUPerBlock+s.stall(st.ctx), st.then((*opState).serverWalk))
}

// serverWalk touches the chunk's blocks through the store without
// holding, then makes one disk pass for those that go to disk: misses, and
// under write-through every written block.
func (st *opState) serverWalk() {
	s := st.c.server
	bs := s.cfg.Disk.BlockSize
	var toDisk int64
	for b, last := st.curOff/bs, (st.curOff+st.curN-1)/bs; b <= last; b++ {
		if s.store.Touch(st.ino, b, st.write) {
			toDisk++
		}
	}
	if toDisk == 0 {
		st.served()
		return
	}
	st.sDisk = toDisk
	vfs.Acquire(st.ctx, s.store.Disk(), st.then((*opState).diskGranted))
}

// diskGranted holds for the disk pass once the arm is granted, from the
// chunk's first block. The arm moves only here, after the grant, so its
// seek state follows the grant order.
func (st *opState) diskGranted() {
	s := st.c.server
	st.ctx.Hold(s.store.Service(st.ino, st.curOff/s.cfg.Disk.BlockSize, st.sDisk), st.then((*opState).diskDone))
}

// diskDone releases the arm and completes the RPC.
func (st *opState) diskDone() {
	vfs.Release(st.ctx, st.c.server.store.Disk())
	st.served()
}

// served releases the daemon and runs the RPC's next step, its reply.
func (st *opState) served() {
	vfs.Release(st.ctx, st.c.server.nfsd)
	st.sNext(st)
}

// Restart models the server coming back from a crash: all daemon state is
// gone, which for this model means the block cache empties (the committed
// file state itself is on disk and survives — NFSv2's write-through is what
// makes a stateless restart safe). Calls already in service complete; NFS
// servers kept no per-client state to lose, so recovery is entirely the
// clients' retransmission problem. Hit/miss statistics survive the restart.
func (s *Server) Restart() {
	s.store.Cache().Reset()
	s.restarts++
}

// Restarts returns the number of times the server has been restarted.
func (s *Server) Restarts() int64 { return s.restarts }

// Invalidate drops an inode's cached blocks (file truncated or removed).
func (s *Server) Invalidate(ino uint64) {
	s.store.Cache().InvalidateFile(ino)
}
