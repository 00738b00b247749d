package fsc

import (
	"math"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/vfs"
)

func buildDefault(t *testing.T, users int) (*Inventory, *vfs.MemFS, *config.Spec) {
	t.Helper()
	spec := config.Default()
	spec.Users = users
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	fsys := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	ctx := &vfs.ManualClock{}
	inv, err := Build(ctx, fsys, spec, tables, rng.New(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return inv, fsys, spec
}

func TestBuildCreatesStructure(t *testing.T) {
	inv, fsys, spec := buildDefault(t, 2)
	ctx := &vfs.ManualClock{}

	// /sys and per-user directories exist.
	for _, dir := range []string{"/sys", "/u0", "/u1"} {
		info, err := (&vfs.Sync{FS: fsys}).Stat(ctx, dir)
		if err != nil || !info.IsDir {
			t.Errorf("%s: %v (dir %v)", dir, err, info.IsDir)
		}
	}
	if len(inv.Users) != 2 {
		t.Fatalf("users = %d", len(inv.Users))
	}
	// Every category has a set reachable from every user.
	for u := 0; u < 2; u++ {
		for cat := range spec.Categories {
			set := inv.ForUser(u, cat)
			if set == nil {
				t.Errorf("user %d category %d has no file set", u, cat)
				continue
			}
			if set.Category != cat {
				t.Errorf("set category = %d, want %d", set.Category, cat)
			}
		}
	}
}

func TestBuildOwnershipSplit(t *testing.T) {
	inv, _, spec := buildDefault(t, 2)
	for i, c := range spec.Categories {
		if c.Owner == config.OwnerUser {
			if inv.System[i] != nil {
				t.Errorf("USER category %s has a system set", c.Name())
			}
			if inv.Users[0][i] == nil || inv.Users[1][i] == nil {
				t.Errorf("USER category %s missing user sets", c.Name())
			}
			if inv.Users[0][i] == inv.Users[1][i] {
				t.Errorf("USER category %s shared between users", c.Name())
			}
		} else {
			if inv.System[i] == nil {
				t.Errorf("OTHER category %s has no system set", c.Name())
			}
			if inv.Users[0][i] != nil {
				t.Errorf("OTHER category %s has a per-user set", c.Name())
			}
			if inv.ForUser(0, i) != inv.ForUser(1, i) {
				t.Errorf("OTHER category %s not shared", c.Name())
			}
		}
	}
}

func TestNewTempNotPrecreated(t *testing.T) {
	inv, _, spec := buildDefault(t, 1)
	for i, c := range spec.Categories {
		set := inv.ForUser(0, i)
		switch c.Use {
		case config.UseNew, config.UseTemp:
			if len(set.Paths) != 0 {
				t.Errorf("%s pre-created %d files", c.Name(), len(set.Paths))
			}
			if set.Quota < 1 {
				t.Errorf("%s quota = %d", c.Name(), set.Quota)
			}
		default:
			if len(set.Paths) == 0 {
				t.Errorf("%s has no pre-created files", c.Name())
			}
			if len(set.Paths) != set.Quota {
				t.Errorf("%s paths %d != quota %d", c.Name(), len(set.Paths), set.Quota)
			}
		}
	}
}

func TestDirCategoriesAreDirectories(t *testing.T) {
	inv, fsys, spec := buildDefault(t, 1)
	ctx := &vfs.ManualClock{}
	for i, c := range spec.Categories {
		set := inv.ForUser(0, i)
		for _, p := range set.Paths {
			info, err := (&vfs.Sync{FS: fsys}).Stat(ctx, p)
			if err != nil {
				t.Fatalf("stat %s: %v", p, err)
			}
			if info.IsDir != c.IsDir() {
				t.Errorf("%s: IsDir = %v, want %v", p, info.IsDir, c.IsDir())
			}
			if !info.IsDir && info.Size < 1 {
				t.Errorf("%s: empty pre-created file", p)
			}
		}
	}
}

func TestProportionsTrackTable51(t *testing.T) {
	spec := config.Default()
	spec.Users = 1
	spec.SystemFiles = 2000
	spec.FilesPerUser = 2000
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	fsys := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	ctx := &vfs.ManualClock{}
	inv, err := Build(ctx, fsys, spec, tables, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := inv.Stats(ctx, fsys, spec)
	if err != nil {
		t.Fatal(err)
	}
	var totalPct float64
	for i, st := range stats {
		c := spec.Categories[i]
		totalPct += st.PercentFiles
		if st.Files == 0 {
			t.Errorf("%s: no files", st.Name)
		}
		// Pre-created regular files should have mean size near the
		// category's Table 5.1 mean (exponential sampling, big count).
		if !c.IsDir() && c.Use != config.UseNew && c.Use != config.UseTemp {
			want := c.FileSize.Mean
			if math.Abs(st.MeanSize-want)/want > 0.35 {
				t.Errorf("%s: mean size %.0f, want ~%.0f", st.Name, st.MeanSize, want)
			}
		}
	}
	if math.Abs(totalPct-100) > 0.01 {
		t.Errorf("stats percents sum to %v", totalPct)
	}
}

func TestNewPathUnique(t *testing.T) {
	set := &FileSet{Dir: "/u0/reg-user-new"}
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		p := set.NewPath()
		if seen[p] {
			t.Fatalf("duplicate path %s", p)
		}
		if !strings.HasPrefix(p, set.Dir+"/") {
			t.Fatalf("path %s outside set dir", p)
		}
		seen[p] = true
	}
}

func TestShare(t *testing.T) {
	cases := []struct {
		total    int
		pct, sum float64
		want     int
	}{
		{100, 50, 100, 50},
		{100, 0.1, 100, 1}, // floor of 1 for positive shares
		{100, 0, 100, 0},
		{0, 50, 100, 0},
		{100, 50, 0, 0},
	}
	for _, c := range cases {
		if got := share(c.total, c.pct, c.sum); got != c.want {
			t.Errorf("share(%d, %v, %v) = %d, want %d", c.total, c.pct, c.sum, got, c.want)
		}
	}
}

func TestBuildChargesTime(t *testing.T) {
	spec := config.Default()
	spec.Users = 1
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	lc := vfs.NewLocalCost(nil, vfs.DefaultLocalCostConfig())
	fsys := vfs.NewMemFS(vfs.WithCostModel(lc), vfs.WithMaxFDs(1<<20))
	ctx := &vfs.ManualClock{}
	if _, err := Build(ctx, fsys, spec, tables, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	if ctx.Now() <= 0 {
		t.Error("creation through a cost model should consume time")
	}
}

func TestBuildInvalidSpec(t *testing.T) {
	spec := config.Default()
	tables, err := gds.BuildTables(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Users = 0
	fsys := vfs.NewMemFS()
	ctx := &vfs.ManualClock{}
	if _, err := Build(ctx, fsys, spec, tables, rng.New(3)); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestBuildDeterministic(t *testing.T) {
	statsOf := func() []CategoryStats {
		spec := config.Default()
		spec.Users = 1
		tables, err := gds.BuildTables(spec)
		if err != nil {
			t.Fatal(err)
		}
		fsys := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
		ctx := &vfs.ManualClock{}
		inv, err := Build(ctx, fsys, spec, tables, rng.New(spec.Seed))
		if err != nil {
			t.Fatal(err)
		}
		st, err := inv.Stats(ctx, fsys, spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := statsOf(), statsOf()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("category %d differs across identical builds: %+v vs %+v", i, a[i], b[i])
		}
	}
}
