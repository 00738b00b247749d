// Package core wires the workload generator together: the Graphic
// Distribution Specifier compiles the spec's distributions into CDF tables,
// the File System Creator builds the initial file system, and the User
// Simulator executes login sessions against the selected file system
// (thesis Figure 4.1). It is the public entry point used by the example
// programs, the command-line tools, and the benchmark harness — the one
// place that assembles the whole DES→workload→trace→analysis pipeline:
// DES substrate under the chosen file system, workload from the spec's
// distributions, and a Summarizer that folds the analysis returned in
// Result as records are emitted. Trace mode log also keeps the records, and
// Metrics snapshots what the simulated components counted.
//
// A Generator owns one experiment:
//
//	gen, err := core.NewGenerator(config.Default())
//	result, err := gen.Run()
//	fmt.Println(result.Analysis.AccessSize.Mean())
//	fmt.Println(gen.Metrics()["nfs.server_calls"])
package core

import (
	"errors"
	"fmt"

	"uswg/internal/config"
	"uswg/internal/fault"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/netsim"
	"uswg/internal/nfs"
	"uswg/internal/realfs"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/trace"
	"uswg/internal/usim"
	"uswg/internal/vfs"
)

// Generator is one configured experiment, ready to run.
type Generator struct {
	spec      *config.Spec
	env       *sim.Env // nil in real mode
	fs        vfs.FileSystem
	inventory *fsc.Inventory
	simulator *usim.Simulator
	log       *trace.Log        // the kept records in log mode, nil when streaming
	sum       *trace.Summarizer // the primary sink, folding Result.Analysis
	windows   *trace.Windows    // the windowed view, nil unless trace.window_us is set
	fleet     *nfs.Fleet        // every NFS run's islands and clients, nil outside NFS mode
	servers   []*nfs.Server     // every island's server in NFS mode
	links     []*netsim.Link    // every island's link in NFS mode
	local     *vfs.LocalCost    // non-nil in local mode
	faults    *fault.Engine     // non-nil when the spec carries a fault plan
	warmOps   int64             // warmed paths (opens + stats), for cost tests
	sync      vfs.Sync          // warming's synchronous caller, pointed at each warmed client
	ran       bool

	// Lazy-population wiring (spec.LazyUsers): the per-materialized-user
	// file-system bindings (entries are deleted again when a user's stream
	// ends).
	lazyFS map[int]vfs.FileSystem
}

// Result is a completed run.
type Result struct {
	// Analysis is the Usage Analyzer's reduction of the run's records,
	// folded online as they were emitted.
	Analysis *trace.Analysis
	// Sessions is the number of login sessions executed.
	Sessions int
	// VirtualDuration is the simulated time the run spanned, µs (0 in
	// real mode, where time is wall-clock inside the records).
	VirtualDuration float64
}

// NewGenerator compiles the spec (GDS), constructs the file system under
// test, and creates the initial file system (FSC). The returned generator's
// Run executes the sessions (USIM).
func NewGenerator(spec *config.Spec) (*Generator, error) {
	if spec == nil {
		return nil, errors.New("core: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tables, err := gds.BuildTables(spec)
	if err != nil {
		return nil, fmt.Errorf("core: GDS: %w", err)
	}

	// The Summarizer is always the primary sink: it folds the analysis as
	// records are emitted, in O(sessions) memory. Trace mode log tees the
	// same records into a full-record Log for the callers that need them
	// (JSONL, Fault 5.4's write-availability split). Tees see
	// every record after the primary, unmodified, so the analysis is the
	// same with or without them.
	g := &Generator{spec: spec, sum: trace.NewSummarizer()}
	var sink trace.Sink = g.sum
	if !spec.Trace.Streaming() {
		g.log = &trace.Log{}
		sink = trace.NewTee(sink, g.log)
	}
	if spec.Trace.WindowUS > 0 {
		g.windows = trace.NewWindows(spec.Trace.WindowUS)
		sink = trace.NewTee(sink, g.windows)
	}
	var setupFS vfs.FileSystem // FSC-only file system, when distinct from fs
	switch spec.FS.Kind {
	case config.FSLocal:
		g.env = sim.NewEnv()
		cfg := spec.FS.Local
		if cfg == (vfs.LocalCostConfig{}) {
			cfg = vfs.DefaultLocalCostConfig()
		}
		g.local = vfs.NewLocalCost(g.env, cfg)
		g.fs = vfs.NewMemFS(vfs.WithCostModel(g.local), vfs.WithMaxFDs(1<<20))
	case config.FSNFS:
		g.env = sim.NewEnv()
		// Every NFS run is a fleet: N islands (server + wire) behind a
		// deterministic namespace router, sharing one namespace shadow so
		// FDs are fleet-unique. The thesis testbed is the one-island fleet
		// with private clients — every user their own SUN 3/50 workstation
		// (private page and attribute caches), all mounting one server over
		// one shared Ethernet. A client pool instead multiplexes all users
		// mapped to an island over K clients.
		fleet, err := nfs.NewFleet(g.env, spec.FS.ResolveTopology(), spec.Seed, vfs.NewMemFS(vfs.WithMaxFDs(1<<20)))
		if err != nil {
			return nil, fmt.Errorf("core: NFS fleet: %w", err)
		}
		g.fleet = fleet
		islands := fleet.Islands()
		g.servers = make([]*nfs.Server, len(islands))
		g.links = make([]*netsim.Link, len(islands))
		for i, isl := range islands {
			g.servers[i], g.links[i] = isl.Server, isl.Link
		}
		// The FSC builds the initial file system through throwaway setup
		// clients, so no user starts the measured run with pages or
		// attributes its peers lack; only the shared server-side state
		// (namespace, server cache) carries over, symmetrically. Nothing
		// past construction holds them but a lazy inventory, which creates
		// arriving users' trees through them.
		setupFS = fleet.SetupFS()
		g.fs = fleet.FSForUser(0)
	case config.FSReal:
		fs, err := realfs.New(spec.FS.RealRoot)
		if err != nil {
			return nil, fmt.Errorf("core: real file system: %w", err)
		}
		g.fs = fs
	default:
		return nil, fmt.Errorf("%w: file system kind %q", config.ErrSpec, spec.FS.Kind)
	}

	// The FSC's setup work is not part of the measured experiment: create
	// the initial file system on an uncharged clock.
	setupCtx := g.setupCtx()
	if setupFS == nil {
		setupFS = g.fs
	}
	inv, err := fsc.Build(setupCtx, setupFS, spec, tables, rng.Derive(spec.Seed, "fsc"))
	if err != nil {
		return nil, fmt.Errorf("core: FSC: %w", err)
	}
	g.inventory = inv

	// The fault engine attaches only now, after the FSC has built the
	// initial file system: faults perturb the measured run, never its
	// construction. (Client cache warming below also bypasses the wrapper
	// by driving the clean clients directly.) The engine's seed derives
	// from the experiment seed, so a fault run is as reproducible as a
	// healthy one.
	if spec.Fault != nil {
		eng, err := fault.NewEngine(spec.Fault, rng.DeriveSeed(spec.Seed, "fault"))
		if err != nil {
			return nil, fmt.Errorf("core: fault plan: %w", err)
		}
		g.faults = eng
	}
	// In NFS mode SetFSForUser below routes every session to a per-user
	// wrapped mount, so the default FS is wrapped only outside NFS mode
	// (local, real).
	measured := g.fs
	if g.faults != nil && spec.Fault.HasFSRules() && g.fleet == nil {
		measured = fault.NewFS(g.fs, g.faults)
	}

	s, err := usim.New(spec, tables, inv, measured, sink)
	if err != nil {
		return nil, fmt.Errorf("core: USIM: %w", err)
	}
	if g.fleet != nil {
		g.warmSlots()
	}
	switch {
	case spec.LazyUsers:
		// Per-user construction (file tree, binding, cache warmth) happens
		// at each user's arrival via the hooks.
		g.installLazy(s)
	case g.fleet != nil:
		perUser := make([]vfs.FileSystem, spec.Users)
		for u := range perUser {
			perUser[u] = g.bindUser(s, u)
		}
		s.SetFSForUser(func(user int) vfs.FileSystem {
			return perUser[user%len(perUser)]
		})
	}
	if g.faults != nil {
		for _, l := range g.links {
			l.SetFaulter(g.faults, netsim.FaultConfig{
				Timeout:    spec.Fault.Timeout(),
				MaxRetries: spec.Fault.Retries(),
				Backoff:    spec.Fault.NetBackoff,
				MaxTimeout: spec.Fault.NetMaxTimeout,
				Hard:       spec.Fault.NetHard,
			})
		}
		for _, srv := range g.servers {
			srv.SetStaller(g.faults)
		}
		if rfs, ok := g.fs.(*realfs.FS); ok {
			rfs.SetHooks(&realfs.Hooks{Before: g.faults.OSBefore(), Chunk: g.faults.OSChunk()})
		}
	}
	g.simulator = s
	return g, nil
}

// Cache warming brings every client to a steady state before the measured
// run: each user's reachable pre-created files are read once (directories
// stat'ed) on an uncharged clock. The thesis measured logged-in users in
// steady state, not first-boot cold caches — and warming every user the
// same way keeps their starting states identical, so response differences
// across users come only from contention. The rule has two parts:
//
//   - warmSlots, once at setup: a pooled fleet warms each shared set (one
//     not owned by a USER category) once per pool slot on every island that
//     serves it, so warming grows with pool size and distinct files, not
//     users × files.
//   - warmUser, as each user is bound: a user that is not a cold start
//     warms, in category order and on the client it reads each path
//     through, every set not already warmed on a shared slot — all of them
//     with private clients, only its own with a pool.

// warmSlots warms the shared sets on every pool slot of every island that
// serves them, path-major. A fleet of private clients has no slots.
func (g *Generator) warmSlots() {
	if !g.fleet.Pooled() {
		return
	}
	islands := g.fleet.Islands()
	for cat := range g.spec.Categories {
		c := &g.spec.Categories[cat]
		if c.Owner == config.OwnerUser {
			continue
		}
		set := g.inventory.ForUser(0, cat)
		if set == nil {
			continue
		}
		for _, path := range set.Paths {
			for isl := range islands {
				if !g.fleet.Serves(isl, path) {
					continue
				}
				for _, slot := range islands[isl].Pool() {
					g.warm(slot, path, c.IsDir())
				}
			}
		}
	}
}

// warmUser warms user u's reachable sets that no shared slot holds.
func (g *Generator) warmUser(u int) {
	pooled := g.fleet.Pooled()
	for cat := range g.spec.Categories {
		c := &g.spec.Categories[cat]
		if pooled && c.Owner != config.OwnerUser {
			continue
		}
		set := g.inventory.ForUser(u, cat)
		if set == nil {
			continue
		}
		for _, path := range set.Paths {
			g.warm(g.fleet.ReadClientFor(u, path), path, c.IsDir())
		}
	}
}

// warm reads one pre-created file through client c (stats a directory)
// with the generator's synchronous caller, on the zero clock: warming runs
// at setup, or in a lazy user's arrival hook, never inside a simulated
// operation.
func (g *Generator) warm(c *nfs.Client, path string, isDir bool) {
	var ctx vfs.ZeroClock
	s := &g.sync
	s.FS = c
	g.warmOps++
	if isDir {
		_, _ = s.Stat(ctx, path) // warming only fills caches
		return
	}
	fd, err := s.Open(ctx, path, vfs.ReadOnly)
	if err != nil {
		return
	}
	for {
		if n, err := s.Read(ctx, fd, 1<<20); err != nil || n == 0 {
			break
		}
	}
	_ = s.Close(ctx, fd) // a read-only descriptor: nothing to flush
}

// bindUser is every NFS user's binding, called for each user in order by
// eager setup and at each arrival by a lazy population: warm the user's
// caches unless it boots cold, then return its mount, wrapped by the fault
// engine when the plan has file-system rules. A lifecycle user arriving
// after t=0 boots cold: it pays the cache-warming cost during the measured
// run — the rejoin storm the steady-state model deliberately hides. With a
// pool it still finds the slots' shared state warm, since the
// "workstation" is shared.
func (g *Generator) bindUser(s *usim.Simulator, u int) vfs.FileSystem {
	if !s.ColdStart(u) {
		g.warmUser(u)
	}
	fs := g.fleet.FSForUser(u)
	if g.faults != nil && g.spec.Fault.HasFSRules() {
		fs = fault.NewFS(fs, g.faults)
	}
	return fs
}

// installLazy wires the lazy population's user hooks: materialization at
// each arrival, binding release at each stream end. The per-user FS map
// holds only live users — userFS falls back to the generator's default file
// system for anyone else, which lazy validation guarantees is never a
// session.
func (g *Generator) installLazy(s *usim.Simulator) {
	g.lazyFS = make(map[int]vfs.FileSystem)
	s.SetFSForUser(func(user int) vfs.FileSystem { return g.lazyFS[user] })
	s.SetUserHooks(usim.UserHooks{
		Materialize: func(u int) error { return g.materializeUser(s, u) },
		Release: func(u int) {
			delete(g.lazyFS, u)
			if g.fleet != nil {
				g.fleet.Release(u)
			}
		},
	})
}

// materializeUser is the lazy population's arrival hook, the whole per-user
// construction cost moved to first arrival: create the user's file tree
// (pre-drawn sizes, uncharged setup clock), then in NFS mode bind the user
// exactly as eager setup does. In local mode the shared file system serves
// everyone; only the file tree is lazy.
func (g *Generator) materializeUser(s *usim.Simulator, u int) error {
	if err := g.inventory.MaterializeUser(u); err != nil {
		return err
	}
	if g.fleet != nil {
		g.lazyFS[u] = g.bindUser(s, u)
	}
	return nil
}

// setupCtx returns the clock used for file system creation: uncharged in
// simulated modes, wall-clock in real mode (where work inherently takes
// time).
func (g *Generator) setupCtx() vfs.Ctx {
	if g.env == nil {
		return realfs.NewWallClock()
	}
	return &vfs.ManualClock{}
}

// FS returns the file system under test, which the user simulator falls
// back on for a user with no binding of its own. In NFS mode it is user
// 0's mount, never a setup client: the FSC's setup clients do not outlive
// construction.
func (g *Generator) FS() vfs.FileSystem { return g.fs }

// Log returns the usage log (populated by Run), or nil when the spec
// selected the streaming trace mode, which keeps no records.
func (g *Generator) Log() *trace.Log { return g.log }

// Servers returns every island's server (length 1 on the one-island
// testbed, nil outside NFS mode).
func (g *Generator) Servers() []*nfs.Server { return g.servers }

// Links returns every island's link (length 1 on the one-island testbed,
// nil outside NFS mode).
func (g *Generator) Links() []*netsim.Link { return g.links }

// Fleet returns the scale-out topology — more than one server, or a client
// pool — or nil otherwise. Every NFS run is built as a fleet, but the
// one-island testbed with private clients is not exposed as one: its
// clients are the users' own workstations, not shared fleet capacity.
func (g *Generator) Fleet() *nfs.Fleet {
	if g.fleet != nil && (len(g.servers) > 1 || g.fleet.Pooled()) {
		return g.fleet
	}
	return nil
}

// WarmOps reports how many paths cache warming touched (opens + stats) —
// the construction-cost figure the pooled-client mode bounds. With lazy
// users it grows as users materialize.
func (g *Generator) WarmOps() int64 { return g.warmOps }

// BuildOps reports the vfs operations the FSC issued creating directories
// and files — with lazy users it grows only as users materialize, the
// counter that pins setup cost to the materialized population.
func (g *Generator) BuildOps() int64 { return g.inventory.BuildOps }

// MaterializedUsers reports how many user file trees exist: the population
// size for an eager build, the number of users that have arrived for a lazy
// one.
func (g *Generator) MaterializedUsers() int { return g.inventory.UsersBuilt }

// LocalCost returns the local cost model, or nil outside local mode.
func (g *Generator) LocalCost() *vfs.LocalCost { return g.local }

// Windows returns the windowed transient-response collector, or nil unless
// the spec set trace.window_us.
func (g *Generator) Windows() *trace.Windows { return g.windows }

// Run executes every login session and returns the analyzed results. A
// generator runs once; construct a new one (same spec, same seed) to repeat
// an experiment.
func (g *Generator) Run() (*Result, error) {
	if g.ran {
		return nil, errors.New("core: generator already ran; create a new one")
	}
	g.ran = true
	// Server outage windows: the link-level message loss is the fault
	// engine's (every message inside a window drops deterministically);
	// here each window gets its restart event — at the window's end the
	// server comes back with its daemon state (the block cache) gone.
	// The restart event pends until the window closes, so a run whose
	// workload drains early still spans at least the outage.
	if g.env != nil && len(g.servers) > 0 && g.spec.Fault != nil {
		for i := range g.spec.Fault.ServerOutages {
			end := g.spec.Fault.ServerOutages[i].End
			g.env.Start(fmt.Sprintf("outage%d", i), func(p *sim.Proc, done sim.K) {
				p.Hold(end, func() {
					// An outage takes the whole fleet down and back up:
					// every island's daemon state (block cache) is gone.
					for _, srv := range g.servers {
						srv.Restart()
					}
					done()
				})
			})
		}
	}
	var sessions int
	var err error
	if g.env != nil {
		sessions, err = g.simulator.RunUnderSim(g.env)
	} else {
		sessions, err = g.simulator.RunWallClock(func() vfs.Ctx { return realfs.NewWallClock() })
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Sessions: sessions, Analysis: g.sum.Finish()}
	if g.env != nil {
		res.VirtualDuration = g.env.Now()
	}
	return res, nil
}
