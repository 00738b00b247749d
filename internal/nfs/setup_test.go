package nfs_test

import (
	"testing"

	"uswg/internal/config"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/nfs"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/vfs"
)

// TestSetupClientsKeepNoAttrs builds a pooled two-island file system through
// a fleet's setup mount, eagerly and then lazily with two users
// materialized, and checks that no setup client cached an attribute: the
// FSC only makes directories and creates, writes and closes files, and none
// of those reads the cache.
func TestSetupClientsKeepNoAttrs(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		spec := config.Default()
		spec.Users, spec.SystemFiles, spec.FilesPerUser = 4, 40, 30
		spec.LazyUsers = lazy
		spec.FS.Topology = &config.Topology{Servers: 2, ClientPool: 2}
		tables, err := gds.BuildTables(spec)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := nfs.NewFleet(sim.NewEnv(), spec.FS.ResolveTopology(), spec.Seed, vfs.NewMemFS(vfs.WithMaxFDs(1<<20)))
		if err != nil {
			t.Fatal(err)
		}
		setup := fleet.SetupFS()
		inv, err := fsc.Build(&vfs.ManualClock{}, setup, spec, tables, rng.New(spec.Seed))
		if err != nil {
			t.Fatal(err)
		}
		for u := range 2 {
			if err := inv.MaterializeUser(u); err != nil {
				t.Fatal(err)
			}
		}
		if inv.FilesCreated == 0 {
			t.Fatalf("lazy %v: the FSC created no files", lazy)
		}
		for i, n := range nfs.SetupAttrs(setup) {
			if n != 0 {
				t.Errorf("lazy %v: setup client %d cached %d attributes, want 0", lazy, i, n)
			}
		}
	}
}
