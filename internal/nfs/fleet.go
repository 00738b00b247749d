package nfs

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"uswg/internal/netsim"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/vfs"
)

// FleetConfig describes a resolved topology: N identical islands (server +
// wire), pooled or private clients, and the namespace placement strategy.
// The thesis testbed is one island with private clients.
type FleetConfig struct {
	// Servers is the island count (at least 1).
	Servers int
	// Pool is the pooled-client count per island. 0 gives every user a
	// private client on every island, built at the user's first use and
	// dropped by Release; K > 0 multiplexes all users mapped to an island
	// over K clients (user -> slot user mod K) built at construction, which
	// is what makes construction and warming proportional to pool size and
	// distinct files.
	Pool int
	// Replicate serves reads of the read-mostly system tree (/sys) from
	// the requesting user's home island instead of the hash-designated
	// primary; writes always go to the primary.
	Replicate bool
	// Server and Client provision every island identically.
	Server ServerConfig
	Client ClientConfig
}

// Island is one self-contained serving unit: a server, its wire, and the
// pooled clients mounted on it.
type Island struct {
	Server *Server
	Link   *netsim.Link
	pool   []*Client
}

// Pool returns the island's pool slots, empty when users have private
// clients. It never holds a nil client.
func (i *Island) Pool() []*Client { return i.pool }

// Fleet is a set of islands behind a deterministic namespace router. All
// islands share one backing MemFS (the namespace shadow), so file
// descriptors are globally unique and the shadow's owner tag names the
// client that opened each FD. Routing is a pure function of (seed, path,
// island count): every construction with the same spec places every path —
// and therefore every RPC — identically, at any scheduler interleaving.
type Fleet struct {
	islands   []*Island
	client    ClientConfig    // every client's configuration
	private   map[int]*Client // private clients by user*islands+island; nil with a pool
	salt      uint64
	replicate bool
	backing   *vfs.MemFS
	rslab     []routerFS // router arena for FSForUser
	cslab     []*Client  // client-table arena for FSForUser
}

// NewFleet builds every island's server and link and, with a pool, its pool
// slots; seed derives the routing salt. Private clients and the FSC's setup
// clients are built on demand (ClientFor, SetupFS).
func NewFleet(env *sim.Env, cfg FleetConfig, seed uint64, backing *vfs.MemFS) (*Fleet, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("nfs: fleet needs at least 1 server, got %d", cfg.Servers)
	}
	if err := cfg.Client.Validate(); err != nil {
		return nil, err
	}
	if backing == nil {
		return nil, fmt.Errorf("nfs: nil backing")
	}
	f := &Fleet{
		islands:   make([]*Island, 0, cfg.Servers),
		client:    cfg.Client,
		salt:      rng.DeriveSeed(seed, "topology"),
		replicate: cfg.Replicate,
		backing:   backing,
	}
	if cfg.Pool <= 0 {
		f.private = make(map[int]*Client)
	}
	for i := 0; i < cfg.Servers; i++ {
		// Islands are built in a fixed order; each construction is a pure
		// function of the config, so the fleet is identical run to run.
		srv, err := NewServer(env, cfg.Server)
		if err != nil {
			return nil, err
		}
		isl := &Island{Server: srv, Link: netsim.NewLink(env, cfg.Client.Net), pool: make([]*Client, max(cfg.Pool, 0))}
		for k := range isl.pool {
			isl.pool[k] = newClient(srv, isl.Link, cfg.Client, backing)
		}
		f.islands = append(f.islands, isl)
	}
	return f, nil
}

// Islands returns the fleet's islands in construction order.
func (f *Fleet) Islands() []*Island { return f.islands }

// Pooled reports whether users share pool slots rather than owning private
// clients.
func (f *Fleet) Pooled() bool { return f.private == nil }

// dirOf returns the parent directory of path ("/" for top-level names).
func dirOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// isSystem reports whether path is in the read-mostly system tree.
func isSystem(path string) bool { return strings.HasPrefix(path, "/sys") }

// RouteDir returns the island owning the contents of directory dir: a
// stable hash of (salt, dir), so a directory's files co-locate on one
// island and placement never depends on creation order.
func (f *Fleet) RouteDir(dir string) int {
	if len(f.islands) == 1 {
		return 0
	}
	return int(rng.DeriveSeed(f.salt, dir) % uint64(len(f.islands)))
}

// Route returns the island owning path: the owner of its parent directory.
func (f *Fleet) Route(path string) int { return f.RouteDir(dirOf(path)) }

// Serves reports whether island isl can serve reads of path for some user:
// the primary always, and every island when the system tree is replicated.
func (f *Fleet) Serves(isl int, path string) bool {
	if f.replicate && isSystem(path) {
		return true
	}
	return isl == f.Route(path)
}

// readIsland picks the island that serves a read of path for a user whose
// home island is home: the primary, unless the system tree is replicated.
func (f *Fleet) readIsland(home int, path string) int {
	if f.replicate && isSystem(path) {
		return home
	}
	return f.Route(path)
}

// ClientFor returns the client user uses on island isl: its pool slot
// (user mod pool size, part of the deterministic placement contract), or
// its private client, built on first use.
func (f *Fleet) ClientFor(user, isl int) *Client {
	if f.private == nil {
		pool := f.islands[isl].pool
		return pool[user%len(pool)]
	}
	key := user*len(f.islands) + isl
	c, ok := f.private[key]
	if !ok {
		i := f.islands[isl]
		c = newClient(i.Server, i.Link, f.client, f.backing)
		f.private[key] = c
	}
	return c
}

// ReadClientFor returns the client user uses to read path — on the home
// replica for replicated system paths, else on the primary.
func (f *Fleet) ReadClientFor(user int, path string) *Client {
	return f.ClientFor(user, f.readIsland(user%len(f.islands), path))
}

// Release drops user's private clients, as a lazy user's workstation leaves
// with its stream; a later ClientFor builds fresh ones. Pool slots outlive
// every user, so a pooled fleet keeps them.
func (f *Fleet) Release(user int) {
	for isl := range f.islands {
		delete(f.private, user*len(f.islands)+isl)
	}
}

// Idle names, in island order, the first island whose nfsd pool or disk
// arm is held or has callers queued, or whose link or pool client holds
// fewer transfer or op states on its free list than it made, then the first
// resident private client that does: a call still in flight, or one that
// never released or recycled what it took. Last it counts the descriptors
// still open on the namespace shadow, which every session closes by its
// end. It returns nil when every resource is free, every state is back and
// no descriptor is open, as at the end of a run.
func (f *Fleet) Idle() error {
	for i, isl := range f.islands {
		if d := isl.Server.nfsd; d.InUse() > 0 || d.QueueLen() > 0 {
			return fmt.Errorf("nfs: island %d server: its nfsd pool has %d held and %d queued", i, d.InUse(), d.QueueLen())
		}
		if err := isl.Server.store.Idle(); err != nil {
			return fmt.Errorf("nfs: island %d server: its %w", i, err)
		}
		if n := isl.Link.InFlight(); n != 0 {
			return fmt.Errorf("nfs: island %d link: %d of its transfer states are not on its free list", i, n)
		}
		for k, c := range isl.pool {
			if n := c.opsMade - len(c.ops); n != 0 {
				return fmt.Errorf("nfs: island %d pool client %d: %d of its %d op states are not on its free list", i, k, n, c.opsMade)
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(f.private)) {
		if c := f.private[key]; c.opsMade != len(c.ops) {
			return fmt.Errorf("nfs: user %d's client on island %d: %d of its %d op states are not on its free list",
				key/len(f.islands), key%len(f.islands), c.opsMade-len(c.ops), c.opsMade)
		}
	}
	if n := f.backing.OpenFDs(); n != 0 {
		return fmt.Errorf("nfs: %d descriptors left open on the namespace shadow", n)
	}
	return nil
}

// FSForUser returns user's mount view of the fleet. On one island with
// private clients that is the user's client itself: a router in front of
// one unshared client has nothing to route. Otherwise it is a router that
// dispatches each VFS call to the owning island's client for that user.
// Routers and their client tables come from per-fleet slabs, so
// provisioning a large population costs one allocation per chunk.
func (f *Fleet) FSForUser(user int) vfs.FileSystem {
	n := len(f.islands)
	if n == 1 && f.private != nil {
		return f.ClientFor(user, 0)
	}
	if len(f.rslab) == 0 {
		f.rslab = make([]routerFS, 64)
	}
	if len(f.cslab) < n {
		f.cslab = make([]*Client, 64*n)
	}
	r := &f.rslab[0]
	f.rslab = f.rslab[1:]
	r.f, r.home = f, user%n
	r.clients, f.cslab = f.cslab[:n:n], f.cslab[n:]
	for i := range f.islands {
		r.clients[i] = f.ClientFor(user, i)
	}
	return r
}

// SetupFS returns a construction-time mount over fresh setup clients, one
// per island, so FSC writes build server-side state on the owning islands
// without touching any user's client cache. The fleet keeps no reference to
// them: they live as long as the returned mount. Its home is island 0.
//
// The setup clients keep no attribute cache (AttrCacheTimeout 0). They only
// make directories and create, write and close files, and none of those
// consults the cache, so filling it would only grow a map by every path
// built on them.
func (f *Fleet) SetupFS() vfs.FileSystem {
	cfg := f.client
	cfg.AttrCacheTimeout = 0
	setup := make([]*Client, len(f.islands))
	for i, isl := range f.islands {
		setup[i] = newClient(isl.Server, isl.Link, cfg, f.backing)
	}
	return &routerFS{f: f, clients: setup}
}

// routerFS is one principal's view of the fleet: vfs.FileSystem calls are
// routed per path (writes to the primary island, reads to the primary or
// the home replica) and per FD. FDs are allocated by the shared backing, so
// they are unique fleet-wide and need no translation, and the backing's
// owner tag already names the client that opened each one: the router keeps
// no descriptor table of its own.
//
// An FD that none of the principal's clients holds open goes to the home
// client. For a closed FD (never opened, or closed by a co-tenant's crash on
// a shared pool slot) that charges the same CPU time and fails with the
// same ErrBadFD as the opening client would: every client is built from one
// ClientConfig.
type routerFS struct {
	f       *Fleet
	home    int
	clients []*Client // this principal's client on each island
}

// owner returns the client that holds fd open when it is one of the
// principal's clients, else the home client.
func (r *routerFS) owner(fd vfs.FD) *Client {
	if c, ok := r.f.backing.Bare().Owner(fd).(*Client); ok && slices.Contains(r.clients, c) {
		return c
	}
	return r.clients[r.home]
}

func (r *routerFS) primary(path string) *Client { return r.clients[r.f.Route(path)] }

func (r *routerFS) reader(path string) *Client {
	return r.clients[r.f.readIsland(r.home, path)]
}

func (r *routerFS) Mkdir(ctx vfs.Ctx, path string, k func(error)) {
	// A new directory's future contents belong to RouteDir(path), so the
	// mkdir RPC is charged there too.
	r.clients[r.f.RouteDir(path)].Mkdir(ctx, path, k)
}

func (r *routerFS) Create(ctx vfs.Ctx, path string, k func(vfs.FD, error)) {
	r.primary(path).Create(ctx, path, k)
}

func (r *routerFS) Open(ctx vfs.Ctx, path string, mode vfs.OpenMode, k func(vfs.FD, error)) {
	c := r.primary(path)
	if !mode.CanWrite() {
		c = r.reader(path)
	}
	c.Open(ctx, path, mode, k)
}

func (r *routerFS) Read(ctx vfs.Ctx, fd vfs.FD, n int64, k func(int64, error)) {
	r.owner(fd).Read(ctx, fd, n, k)
}

func (r *routerFS) Write(ctx vfs.Ctx, fd vfs.FD, n int64, k func(int64, error)) {
	r.owner(fd).Write(ctx, fd, n, k)
}

func (r *routerFS) Seek(ctx vfs.Ctx, fd vfs.FD, offset int64, whence int, k func(int64, error)) {
	r.owner(fd).Seek(ctx, fd, offset, whence, k)
}

func (r *routerFS) Close(ctx vfs.Ctx, fd vfs.FD, k func(error)) {
	r.owner(fd).Close(ctx, fd, k)
}

func (r *routerFS) Unlink(ctx vfs.Ctx, path string, k func(error)) {
	r.primary(path).Unlink(ctx, path, k)
}

func (r *routerFS) Stat(ctx vfs.Ctx, path string, k func(vfs.FileInfo, error)) {
	r.reader(path).Stat(ctx, path, k)
}

func (r *routerFS) ReadDir(ctx vfs.Ctx, path string, k func([]string, error)) {
	// A listing is served by the island owning the directory's contents
	// (RouteDir of the directory itself, not of its parent).
	isl := r.f.RouteDir(path)
	if r.f.replicate && isSystem(path) {
		isl = r.home
	}
	r.clients[isl].ReadDir(ctx, path, k)
}

// Crash implements vfs.Crasher: a workstation crash in pooled mode reclaims
// the user's pool slot on every island — those clients' caches and open FDs
// are lost (and with them any other user multiplexed onto the same slot,
// which is the cost of sharing the machine). The slot is reused as-is after
// reboot.
func (r *routerFS) Crash() {
	for _, c := range r.clients {
		c.Crash()
	}
}
