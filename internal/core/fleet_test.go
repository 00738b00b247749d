package core

import (
	"fmt"
	"testing"

	"uswg/internal/config"
	"uswg/internal/trace"
)

// fleetSpec returns a quick multi-island pooled spec.
func fleetSpec(servers, pool int) *config.Spec {
	spec := smallSpec()
	spec.Users = 6
	spec.Sessions = 12
	spec.FS.Topology = &config.Topology{Servers: servers, ClientPool: pool}
	return spec
}

func TestFleetRunEndToEnd(t *testing.T) {
	gen, err := NewGenerator(fleetSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if gen.Fleet() == nil {
		t.Fatal("topology with servers>1 must take the fleet path")
	}
	if got := len(gen.Servers()); got != 4 {
		t.Fatalf("servers = %d, want 4", got)
	}
	if got := len(gen.Links()); got != 4 {
		t.Fatalf("links = %d, want 4", got)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 12 {
		t.Errorf("sessions = %d, want 12", res.Sessions)
	}
	if res.Analysis.Response.N() == 0 {
		t.Error("no data ops recorded")
	}
	var calls int64
	islands := 0
	for _, s := range gen.Servers() {
		if s.Calls() > 0 {
			islands++
		}
		calls += s.Calls()
	}
	if calls == 0 {
		t.Error("fleet saw no RPCs")
	}
	if islands < 2 {
		t.Errorf("only %d of 4 islands saw traffic; router may not shard", islands)
	}
}

// TestFleetRunsAreReproducible pins fleet determinism at the generator
// level: two independent constructions of the same pooled multi-island spec
// produce bit-identical traces.
func TestFleetRunsAreReproducible(t *testing.T) {
	run := func() []trace.Record {
		gen, err := NewGenerator(fleetSpec(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.Log().Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestFleetLegacySpecUnchanged pins the accessors of the thesis testbed: a
// spec with no topology block runs on a one-island fleet of private
// clients, which Fleet does not expose as scale-out, while Servers/Links
// hold its one server and link. Fleet does expose every scale-out shape.
func TestFleetLegacySpecUnchanged(t *testing.T) {
	gen, err := NewGenerator(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if gen.Fleet() != nil {
		t.Fatal("legacy spec must not expose a scale-out fleet")
	}
	if len(gen.Servers()) != 1 || len(gen.Links()) != 1 {
		t.Errorf("legacy spec exposes %d servers / %d links, want 1/1",
			len(gen.Servers()), len(gen.Links()))
	}
	// A pool, even on one island, or a second island makes it scale-out.
	for _, topo := range []*config.Topology{{Servers: 1, ClientPool: 2}, {Servers: 2}} {
		spec := smallSpec()
		spec.FS.Topology = topo
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if gen.Fleet() == nil {
			t.Errorf("topology %+v must expose its fleet", *topo)
		}
	}
}

// TestPooledWarmingCost is the scale claim behind the client pool: warming
// work grows with pool size and distinct files, not users x files. A pooled
// 40-user population must warm far fewer paths than the per-user mode, and
// growing the population with the pool held fixed must only add the new
// users' own files (not another full pass over the system tree per user).
// It then pins the warming rule by count on every shape.
func TestPooledWarmingCost(t *testing.T) {
	run := func(users int, topo *config.Topology) *Generator {
		spec := smallSpec()
		spec.Users = users
		spec.Sessions = 4
		spec.FilesPerUser = 4
		spec.FS.Topology = topo
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen
	}
	const users, pool = 40, 2
	pooledTopo := &config.Topology{Servers: 2, ClientPool: pool}
	legacy, pooled := run(users, nil).WarmOps(), run(users, pooledTopo).WarmOps()
	if pooled*4 > legacy {
		t.Errorf("pooled warming (%d ops) should be well under legacy (%d ops)", pooled, legacy)
	}
	// Doubling the population with the pool fixed adds only the new users'
	// own files: the system-tree share must not grow.
	grown := run(2*users, pooledTopo).WarmOps()
	if added := grown - pooled; added > int64(users)*8 {
		t.Errorf("adding %d users added %d warm ops; pooled warming should not rescan the system tree per user", users, added)
	}

	// The rule by count. Shared sets live under /sys: with private clients
	// every user reads them and its own sets; with a pool each slot reads
	// the shared paths once on every island serving them — the one owning
	// island under shard, both islands under replicate — and each user
	// reads only its own.
	paths := func(gen *Generator) (shared, own int64) {
		spec, inv := gen.spec, gen.inventory
		for cat := range spec.Categories {
			if spec.Categories[cat].Owner != config.OwnerUser {
				shared += int64(len(inv.ForUser(0, cat).Paths))
				continue
			}
			for u := 0; u < spec.Users; u++ {
				own += int64(len(inv.ForUser(u, cat).Paths))
			}
		}
		return shared, own
	}
	private := func(shared, own int64) int64 { return users*shared + own }
	for _, tc := range []struct {
		name string
		topo *config.Topology
		want func(shared, own int64) int64
	}{
		{"testbed", nil, private},
		{"servers=2", &config.Topology{Servers: 2}, private},
		{"servers=2,replicate", &config.Topology{Servers: 2, Placement: config.PlaceReplicate}, private},
		{"pool", pooledTopo, func(shared, own int64) int64 { return pool*shared + own }},
		{"pool,replicate", &config.Topology{Servers: 2, ClientPool: pool, Placement: config.PlaceReplicate},
			func(shared, own int64) int64 { return 2*pool*shared + own }},
	} {
		gen := run(users, tc.topo)
		shared, own := paths(gen)
		if shared == 0 || own == 0 {
			t.Fatalf("%s: %d shared and %d own paths; the count check is vacuous", tc.name, shared, own)
		}
		if got, want := gen.WarmOps(), tc.want(shared, own); got != want {
			t.Errorf("%s: WarmOps = %d, want %d (%d shared paths, %d own)", tc.name, got, want, shared, own)
		}
	}
}

// TestRunEndsWithoutLeaks is a piece of the end-of-run invariant check, on
// the testbed and on two islands of private clients, eager and lazy, with
// and without workstation crashes; on two islands of two pool clients with
// crashes, where a crash on a shared slot closes a co-tenant's descriptors
// while its call may be in flight; and on the local file system with
// crashes. No descriptor is left open on the shared namespace shadow, every
// server, link and client op state is back on its free list (the local
// file system's call states too), and a lazy population holds no private
// client — every user's workstation left with its stream.
func TestRunEndsWithoutLeaks(t *testing.T) {
	type row struct {
		name               string
		topo               *config.Topology
		local, lazy, crash bool
	}
	var rows []row
	for _, tc := range lazyTopologies[:2] {
		for _, lazy := range []bool{false, true} {
			for _, crash := range []bool{false, true} {
				rows = append(rows, row{name: tc.name, topo: tc.topo, lazy: lazy, crash: crash})
			}
		}
	}
	rows = append(rows,
		row{name: "servers=2,pool=2", topo: &config.Topology{Servers: 2, ClientPool: 2}, crash: true},
		row{name: "local", local: true, crash: true})
	for _, tc := range rows {
		t.Run(fmt.Sprintf("%s,lazy=%v,crash=%v", tc.name, tc.lazy, tc.crash), func(t *testing.T) {
			spec := churnSpec()
			spec.Users = 4
			if !tc.crash {
				spec.UserTypes[0].Lifecycle = nil
			}
			spec.FS.Topology = tc.topo
			if tc.local {
				spec.FS.Kind = config.FSLocal
			}
			spec.LazyUsers = tc.lazy
			gen, err := NewGenerator(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gen.Run(); err != nil {
				t.Fatal(err)
			}
			if tc.crash && gen.Metrics()["usim.crashes"] == 0 {
				t.Fatal("no workstation crashed; the crash case is vacuous")
			}
			if tc.local {
				if err := gen.LocalCost().Idle(); err != nil {
					t.Error(err)
				}
				return
			}
			if n := gen.fleet.Backing().OpenFDs(); n != 0 {
				t.Errorf("%d descriptors left open on the namespace shadow", n)
			}
			if err := gen.fleet.Idle(); err != nil {
				t.Error(err)
			}
			if tc.lazy {
				if n := gen.fleet.Resident(); n != 0 {
					t.Errorf("%d private clients resident after the run", n)
				}
				if n := len(gen.lazyFS); n != 0 {
					t.Errorf("%d users still bound after the run", n)
				}
			}
		})
	}
}
