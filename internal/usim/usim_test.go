package usim

import (
	"math"
	"testing"

	"uswg/internal/config"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// harness builds a simulator against a cost-free MemFS.
func harness(t *testing.T, mutate func(*config.Spec)) (*Simulator, *config.Spec) {
	t.Helper()
	spec := config.Default()
	spec.Users = 1
	spec.Sessions = 10
	spec.SystemFiles = 40
	spec.FilesPerUser = 30
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	if mutate != nil {
		mutate(spec)
	}
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	fsys := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	ctx := &vfs.ManualClock{}
	inv, err := fsc.Build(ctx, fsys, spec, tables, rng.New(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(spec, tables, inv, fsys, &trace.Log{})
	if err != nil {
		t.Fatal(err)
	}
	return s, spec
}

func TestNewValidation(t *testing.T) {
	s, spec := harness(t, nil)
	if _, err := New(spec, nil, nil, nil, nil); err == nil {
		t.Error("nil pieces should be rejected")
	}
	bad := *spec
	bad.Users = 0
	if _, err := New(&bad, s.tables, s.inv, s.fs, nil); err == nil {
		t.Error("invalid spec should be rejected")
	}
}

func TestTypeOfDeterministicSplit(t *testing.T) {
	s, _ := harness(t, func(sp *config.Spec) {
		sp.Users = 5
		sp.UserTypes = config.Population(0.8)
	})
	heavy := 0
	for u := range 5 {
		if s.typeOf(u) == config.UserHeavy {
			heavy++
		}
	}
	if heavy != 4 {
		t.Errorf("heavy users = %d of 5, want 4 (80%%)", heavy)
	}
	if got := s.typeOf(4); got != config.UserLight {
		t.Errorf("typeOf(4) = %s, want the light user last", got)
	}
}

func TestTypeOfSingle(t *testing.T) {
	s, _ := harness(t, func(sp *config.Spec) { sp.Users = 3 })
	for u := range 3 {
		if ty := s.typeOf(u); ty != config.UserHeavy {
			t.Errorf("type = %s", ty)
		}
	}
}

func TestRunSessionProducesConstrainedStream(t *testing.T) {
	s, _ := harness(t, nil)
	ctx := &vfs.ManualClock{}
	if err := s.RunSession(ctx, 0, 0, config.UserHeavy, rng.New(42)); err != nil {
		t.Fatal(err)
	}
	recs := s.Log().Records()
	if len(recs) == 0 {
		t.Fatal("session produced no operations")
	}

	// Logical constraints: for every path, reads/writes happen only
	// between an open/create and the matching close.
	open := make(map[string]bool)
	for i, r := range recs {
		if r.Err != "" {
			continue
		}
		switch r.Op {
		case trace.OpOpen, trace.OpCreate:
			open[r.Path] = true
		case trace.OpClose:
			if !open[r.Path] {
				t.Errorf("record %d: close of unopened %s", i, r.Path)
			}
			open[r.Path] = false
		case trace.OpRead, trace.OpWrite, trace.OpSeek:
			if !open[r.Path] {
				t.Errorf("record %d: %s on unopened %s", i, r.Op, r.Path)
			}
		}
	}
	for path, isOpen := range open {
		if isOpen {
			t.Errorf("%s still open at logout", path)
		}
	}
}

func TestSessionThinkTimeAdvancesClock(t *testing.T) {
	s, _ := harness(t, nil)
	ctx := &vfs.ManualClock{}
	if err := s.RunSession(ctx, 0, 0, config.UserHeavy, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	ops := s.Log().Len()
	if ops == 0 {
		t.Fatal("no ops")
	}
	// Heavy users think exp(5000) between ops; the clock must advance on
	// that scale even though the file system is cost-free.
	perOp := ctx.Now() / float64(ops)
	if perOp < 1000 {
		t.Errorf("mean think per op = %v µs, want thousands", perOp)
	}
}

func TestZeroThinkTimeZeroCostIsInstant(t *testing.T) {
	s, _ := harness(t, func(sp *config.Spec) {
		sp.UserTypes = config.ExtremelyHeavyPopulation()
	})
	ctx := &vfs.ManualClock{}
	if err := s.RunSession(ctx, 0, 0, config.UserExtremelyHeavy, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if ctx.Now() != 0 {
		t.Errorf("clock advanced to %v with zero think and zero cost", ctx.Now())
	}
	if s.Log().Len() == 0 {
		t.Error("no operations executed")
	}
}

func TestUnknownUserType(t *testing.T) {
	s, _ := harness(t, nil)
	if err := s.RunSession(&vfs.ManualClock{}, 0, 0, "martian", rng.New(1)); err == nil {
		t.Error("unknown user type should fail")
	}
}

func TestTempFilesAreUnlinked(t *testing.T) {
	s, _ := harness(t, nil)
	ctx := &vfs.ManualClock{}
	// Run enough sessions that TEMP (59% of users) is certainly touched.
	for i := 0; i < 20; i++ {
		if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var creates, unlinks int
	tempCat := -1
	for i, c := range s.spec.Categories {
		if c.Use == config.UseTemp {
			tempCat = i
		}
	}
	for _, r := range s.Log().Records() {
		if r.Category != tempCat || r.Err != "" {
			continue
		}
		switch r.Op {
		case trace.OpCreate:
			creates++
		case trace.OpUnlink:
			unlinks++
		}
	}
	if creates == 0 {
		t.Fatal("no TEMP files created in 20 sessions")
	}
	if unlinks != creates {
		t.Errorf("TEMP creates %d != unlinks %d", creates, unlinks)
	}
}

func TestNewFilesAreWrittenThenKept(t *testing.T) {
	s, _ := harness(t, nil)
	ctx := &vfs.ManualClock{}
	for i := 0; i < 20; i++ {
		if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	newCat := -1
	for i, c := range s.spec.Categories {
		if c.Use == config.UseNew {
			newCat = i
		}
	}
	var creates, writes, unlinks int
	for _, r := range s.Log().Records() {
		if r.Category != newCat || r.Err != "" {
			continue
		}
		switch r.Op {
		case trace.OpCreate:
			creates++
		case trace.OpWrite:
			writes++
		case trace.OpUnlink:
			unlinks++
		}
	}
	if creates == 0 || writes == 0 {
		t.Fatalf("NEW category: creates %d writes %d", creates, writes)
	}
	if unlinks != 0 {
		t.Errorf("NEW files should not be unlinked, got %d", unlinks)
	}
}

func TestDirCategoriesUseMetadataOps(t *testing.T) {
	s, _ := harness(t, nil)
	ctx := &vfs.ManualClock{}
	for i := 0; i < 20; i++ {
		if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(uint64(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range s.Log().Records() {
		if r.Category < 0 || r.Err != "" {
			continue
		}
		if s.spec.Categories[r.Category].IsDir() {
			if r.Op == trace.OpRead || r.Op == trace.OpWrite {
				t.Fatalf("data op %s on directory %s", r.Op, r.Path)
			}
		}
	}
}

func TestAccessSizesFollowSpec(t *testing.T) {
	s, _ := harness(t, func(sp *config.Spec) { sp.Sessions = 1 })
	ctx := &vfs.ManualClock{}
	for i := 0; i < 40; i++ {
		if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(uint64(300+i))); err != nil {
			t.Fatal(err)
		}
	}
	a := trace.Analyze(s.Log())
	if a.AccessSize.N() < 100 {
		t.Fatalf("only %d data ops", a.AccessSize.N())
	}
	// Truncated exponential(1024) clipped by remaining budgets: the mean
	// lands below 1024 but on its order.
	m := a.AccessSize.Mean()
	if m < 300 || m > 1400 {
		t.Errorf("access size mean = %v, want hundreds-to-~1024", m)
	}
}

func TestSessionsAreReproducible(t *testing.T) {
	run := func() []trace.Record {
		s, _ := harness(t, nil)
		ctx := &vfs.ManualClock{}
		for i := 0; i < 5; i++ {
			if err := s.RunSession(ctx, i, 0, config.UserHeavy, rng.New(7)); err != nil {
				t.Fatal(err)
			}
		}
		return s.Log().Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestRunUnderSim(t *testing.T) {
	spec := config.Default()
	spec.Users = 3
	spec.Sessions = 9
	spec.SystemFiles = 30
	spec.FilesPerUser = 20
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	fsys := vfs.NewLocalCost(env, vfs.DefaultLocalCostConfig(), vfs.NewMemFS(vfs.WithMaxFDs(1<<20)))
	inv, err := fsc.Build(&vfs.ManualClock{}, fsys, spec, tables, rng.New(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(spec, tables, inv, fsys, &trace.Log{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.RunUnderSim(env)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("sessions run = %d, want 9", n)
	}
	a := trace.Analyze(s.Log())
	if len(a.Sessions) != 9 {
		t.Errorf("sessions logged = %d, want 9", len(a.Sessions))
	}
	// All three users appear.
	users := make(map[int]bool)
	for _, su := range a.Sessions {
		users[su.User] = true
	}
	if len(users) != 3 {
		t.Errorf("users seen = %d, want 3", len(users))
	}
	// Response times are virtual-time measurements and must be positive
	// for data ops on the local file system.
	if a.Response.N() > 0 && a.Response.Mean() <= 0 {
		t.Error("mean data-op response time should be positive")
	}
}

func TestShareOf(t *testing.T) {
	cases := []struct {
		total, users int
		want         []int
	}{
		{9, 3, []int{3, 3, 3}},
		{10, 3, []int{4, 3, 3}},
		{2, 4, []int{1, 1, 0, 0}},
	}
	for _, c := range cases {
		for i, want := range c.want {
			if got := shareOf(c.total, c.users, i); got != want {
				t.Errorf("shareOf(%d, %d, %d) = %d, want %d", c.total, c.users, i, got, want)
			}
		}
	}
}

func TestAccessPerByteShapesBudget(t *testing.T) {
	// With access-per-byte pinned at 2.0 and a single category, every
	// session should transfer ~2x the bytes of each file it touches.
	s, _ := harness(t, func(sp *config.Spec) {
		sp.Categories = []config.Category{{
			FileType:      config.FileReg,
			Owner:         config.OwnerUser,
			Use:           config.UseRdOnly,
			FileSize:      config.Const(10000),
			PercentFiles:  100,
			AccessPerByte: config.Const(2),
			FilesAccessed: config.Const(1),
			PercentUsers:  100,
		}}
	})
	ctx := &vfs.ManualClock{}
	if err := s.RunSession(ctx, 0, 0, config.UserHeavy, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(s.Log())
	if len(a.Sessions) != 1 {
		t.Fatal("expected one session")
	}
	su := a.Sessions[0]
	if su.FilesReferenced != 1 {
		t.Fatalf("files referenced = %d, want 1", su.FilesReferenced)
	}
	if math.Abs(su.AccessPerByte-2) > 0.05 {
		t.Errorf("observed access-per-byte = %v, want ~2", su.AccessPerByte)
	}
}

// TestSelectFilesSizingAllocs checks that sizing existing files allocates
// nothing per file: selectFiles on a recycled arena must not allocate more
// when a session sizes 32 existing files than when it sizes 2.
func TestSelectFilesSizingAllocs(t *testing.T) {
	allocs := func(files int) float64 {
		s, _ := harness(t, func(sp *config.Spec) {
			sp.Categories = []config.Category{{
				FileType: config.FileReg, Owner: config.OwnerUser, Use: config.UseRdOnly,
				FileSize: config.Exp(4096), PercentFiles: 100, AccessPerByte: config.Exp(1),
				FilesAccessed: config.Const(float64(files)), PercentUsers: 100,
			}}
			sp.SystemFiles, sp.FilesPerUser = 0, 64
		})
		ar := newArena()
		ses := &ar.ses
		ses.sim, ses.fsys, ses.r = s, s.userFS(0), rng.New(1)
		ses.sync.FS = ses.fsys
		sized := 0
		cycle := func() {
			ar.reset()
			ses.selectFiles(ar)
			sized = len(ses.items)
		}
		cycle()
		n := testing.AllocsPerRun(50, cycle)
		if sized != files {
			t.Fatalf("session sized %d files, want %d", sized, files)
		}
		return n
	}
	if few, many := allocs(2), allocs(32); many > few {
		t.Errorf("selectFiles allocates %v times sizing 32 files, %v sizing 2", many, few)
	}
}

// arenaSink keeps TestArenaCost's arenas on the heap.
var arenaSink *arena

// TestArenaCost pins what making a session arena costs: the arena, its
// created set and the seven continuations the session hands to Hold or to
// a FileSystem.
func TestArenaCost(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { arenaSink = newArena() }); n > 9 {
		t.Errorf("newArena: %v allocations, want at most 9", n)
	}
}
