package core

import (
	"reflect"
	"runtime"
	"testing"

	"uswg/internal/config"
	"uswg/internal/trace"
)

// lazySpec returns a single-island NFS spec with more users than sessions,
// so the lazy path exercises both materialized and never-arriving users.
func lazySpec() *config.Spec {
	spec := config.Default()
	spec.Users = 12
	spec.Sessions = 6
	spec.SystemFiles = 30
	spec.FilesPerUser = 8
	spec.Seed = 42
	// An evicting cache's LRU recency order is the one piece of shared
	// state whose history a lazy run interleaves differently (user trees
	// are built and warmed at arrival, not all up front). With nothing
	// evicting, hit/miss depends on block presence alone, and presence per
	// op is identical in both modes — the boundary DESIGN.md documents.
	spec.FS.Server.CacheBlocks = 1 << 20
	return spec
}

// lazyTopologies are the NFS shapes the lazy-equals-eager and heap tests
// take: the one-island testbed, and two islands of private clients with
// each placement. Both modes bind a user through the same warm-then-mount
// path, so a private fleet matches at any island count.
var lazyTopologies = []struct {
	name string
	topo *config.Topology
}{
	{"testbed", nil},
	{"servers=2", &config.Topology{Servers: 2}},
	{"servers=2,replicate", &config.Topology{Servers: 2, Placement: config.PlaceReplicate}},
}

// TestLazyMatchesEagerByteIdentical is the lazy path's core guarantee: with
// no cache eviction, a lazy run's full record stream, analysis, and virtual
// duration are bit-equal to the eager run's — file sizes are drawn from the
// eager stream in eager order, every other per-user draw has a private
// stream, and materialization replays construction in eager user order.
func TestLazyMatchesEagerByteIdentical(t *testing.T) {
	for _, tc := range lazyTopologies {
		t.Run(tc.name, func(t *testing.T) {
			run := func(lazy bool) (*Result, []trace.Record, int) {
				spec := lazySpec()
				spec.FS.Topology = tc.topo
				spec.LazyUsers = lazy
				gen, err := NewGenerator(spec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := gen.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, gen.Log().Records(), gen.MaterializedUsers()
			}
			eagerRes, eagerRecs, eagerBuilt := run(false)
			lazyRes, lazyRecs, lazyBuilt := run(true)

			if eagerBuilt != 12 {
				t.Errorf("eager built %d user trees, want 12", eagerBuilt)
			}
			if lazyBuilt != 6 {
				t.Errorf("lazy built %d user trees, want 6 (one per session-holding user)", lazyBuilt)
			}
			if len(eagerRecs) == 0 {
				t.Fatal("eager run produced no records")
			}
			if !reflect.DeepEqual(eagerRecs, lazyRecs) {
				t.Fatalf("record streams differ: eager %d records, lazy %d", len(eagerRecs), len(lazyRecs))
			}
			if eagerRes.VirtualDuration != lazyRes.VirtualDuration {
				t.Errorf("virtual duration: eager %v, lazy %v", eagerRes.VirtualDuration, lazyRes.VirtualDuration)
			}
			if !reflect.DeepEqual(eagerRes.Analysis, lazyRes.Analysis) {
				t.Error("analyses differ between eager and lazy runs")
			}
		})
	}
}

// TestLazyLocalMatchesEager covers the local-mode lazy path (no clients,
// only the file tree is deferred).
func TestLazyLocalMatchesEager(t *testing.T) {
	run := func(lazy bool) []trace.Record {
		spec := lazySpec()
		spec.FS = config.FSSpec{Kind: config.FSLocal}
		spec.LazyUsers = lazy
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.Log().Records()
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("local-mode record streams differ between eager and lazy runs")
	}
}

// TestLazyBuildOpsScaleWithMaterialized pins the setup-cost claim: the
// FSC's operation count and the warming count must track the materialized
// population, not the spec population.
func TestLazyBuildOpsScaleWithMaterialized(t *testing.T) {
	ops := func(users int, lazy bool) (build, warm int64) {
		spec := lazySpec()
		spec.Users = users
		spec.LazyUsers = lazy
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.BuildOps(), gen.WarmOps()
	}
	lazyBuild, lazyWarm := ops(200, true)
	eagerBuild, eagerWarm := ops(200, false)
	if lazyBuild >= eagerBuild/4 {
		t.Errorf("lazy BuildOps %d not well under eager %d (6 of 200 users materialize)",
			lazyBuild, eagerBuild)
	}
	if lazyWarm >= eagerWarm/4 {
		t.Errorf("lazy WarmOps %d not well under eager %d", lazyWarm, eagerWarm)
	}
}

// TestLazyLifecycleDeterministic runs the scale5.3 shape in miniature —
// lazy users arriving over a lifecycle window — twice, and demands
// identical record streams: deferred construction happens at drawn arrival
// times, and every draw comes from a per-user stream, so the timeline is a
// pure function of the spec.
func TestLazyLifecycleDeterministic(t *testing.T) {
	run := func() ([]trace.Record, int) {
		spec := lazySpec()
		spec.Users = 20
		spec.Sessions = 10
		arrive := config.DistSpec{Kind: config.KindUniform, Lo: 0, Hi: 30e6}
		spec.UserTypes[0].Lifecycle = &config.Lifecycle{Arrive: &arrive}
		spec.LazyUsers = true
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.Log().Records(), gen.MaterializedUsers()
	}
	recsA, builtA := run()
	recsB, builtB := run()
	if len(recsA) == 0 {
		t.Fatal("lifecycle lazy run produced no records")
	}
	if !reflect.DeepEqual(recsA, recsB) {
		t.Fatal("repeated lazy lifecycle runs differ")
	}
	if builtA != builtB {
		t.Fatalf("materialized users differ: %d vs %d", builtA, builtB)
	}
	if builtA > 10 {
		t.Errorf("materialized %d users, want at most the 10 session-holding ones", builtA)
	}
}

// TestLazyMaterializationBoundsHeap is the memory claim at scale: a lazy
// user costs nothing until it arrives. Each case runs one lazy spec at two
// population sizes with the same sessions, so the same users arrive, and
// demands the same analysis and the same heap growth within 256 KiB. A
// structure that scaled with the population (a per-user slot in the types,
// the session shares, the lifecycle table, pre-drawn file sizes or the
// inventory) would show as the 900,000 or 999,000 extra users' worth of
// it. On two islands of private clients this also pins that a lazy user's
// clients are built at its arrival and dropped when it leaves, not
// provisioned for everyone. The last case is the default spec with
// arrivals spread over 5 s.
func TestLazyMaterializationBoundsHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("million-user runs in -short mode")
	}
	small := func(topo *config.Topology) func(*config.Spec) {
		return func(spec *config.Spec) {
			spec.Sessions = 1000 // the first 1000 users hold one session each
			spec.SystemFiles = 30
			spec.FilesPerUser = 4
			spec.Seed = 7
			spec.FS.Topology = topo
		}
	}
	arrive := config.DistSpec{Kind: config.KindUniform, Hi: 5e6}
	const slack = 256 << 10
	for _, tc := range []struct {
		name      string
		few, many int
		shape     func(*config.Spec)
	}{
		{lazyTopologies[0].name, 100000, 1000000, small(lazyTopologies[0].topo)},
		{lazyTopologies[1].name, 100000, 1000000, small(lazyTopologies[1].topo)}, // placement does not change what is built
		{"default,40-sessions,arriving", 1000, 1000000, func(spec *config.Spec) {
			spec.Sessions = 40
			spec.UserTypes[0].Lifecycle = &config.Lifecycle{Arrive: &arrive}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grow := func(users int) (uint64, *trace.Analysis) {
				spec := config.Default()
				tc.shape(spec)
				spec.Users = users
				spec.Trace = config.TraceSpec{Mode: config.TraceStream}
				spec.LazyUsers = true
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				gen, err := NewGenerator(spec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := gen.Run()
				if err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				if got := gen.MaterializedUsers(); got != spec.Sessions {
					t.Fatalf("%d users materialized, want the %d session holders", got, spec.Sessions)
				}
				runtime.KeepAlive(gen)
				if after.HeapAlloc < before.HeapAlloc {
					return 0, res.Analysis
				}
				return after.HeapAlloc - before.HeapAlloc, res.Analysis
			}
			few, fewAnalysis := grow(tc.few)
			many, manyAnalysis := grow(tc.many)
			if !reflect.DeepEqual(fewAnalysis, manyAnalysis) {
				t.Errorf("the same sessions analyze differently at %d and %d users", tc.few, tc.many)
			}
			t.Logf("heap growth: %d users %d B, %d users %d B", tc.few, few, tc.many, many)
			if many > few+slack || few > many+slack {
				t.Errorf("heap growth differs by more than %d B between %d users (%d B) and %d users (%d B)",
					slack, tc.few, few, tc.many, many)
			}
		})
	}
}
