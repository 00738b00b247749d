package nfs

import (
	"errors"
	"fmt"
	"testing"

	"uswg/internal/sim"
	"uswg/internal/vfs"
)

func testFleet(t *testing.T, servers, pool int, seed uint64, replicate bool) *Fleet {
	t.Helper()
	f, err := NewFleet(sim.NewEnv(), FleetConfig{
		Servers:   servers,
		Pool:      pool,
		Replicate: replicate,
		Server:    testServerConfig(),
		Client:    testClientConfig(),
	}, seed, vfs.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetRoutingDeterministic pins the placement contract: routing is a
// pure function of (seed, path, island count), identical across independent
// constructions and independent of query order.
func TestFleetRoutingDeterministic(t *testing.T) {
	paths := make([]string, 0, 64)
	for u := 0; u < 8; u++ {
		for i := 0; i < 8; i++ {
			paths = append(paths, fmt.Sprintf("/u%d/text-file/f%d", u, i))
		}
	}
	a := testFleet(t, 4, 8, 42, false)
	b := testFleet(t, 4, 8, 42, false)
	for _, p := range paths {
		if a.Route(p) != b.Route(p) {
			t.Fatalf("route of %q differs across constructions: %d vs %d", p, a.Route(p), b.Route(p))
		}
	}
	// Reversed query order must not matter (no hidden state).
	for i := len(paths) - 1; i >= 0; i-- {
		if a.Route(paths[i]) != b.Route(paths[i]) {
			t.Fatal("route depends on query order")
		}
	}
	c := testFleet(t, 4, 8, 43, false)
	diff := 0
	for _, p := range paths {
		if a.Route(p) != c.Route(p) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the seed never moved a path: salt unused?")
	}
}

// TestFleetRouteByDirectory checks that a directory's files co-locate: the
// hash keys on the parent directory, so a category's files land together.
func TestFleetRouteByDirectory(t *testing.T) {
	f := testFleet(t, 8, 4, 7, false)
	home := f.Route("/u3/text-file/f0")
	for i := 1; i < 20; i++ {
		if got := f.Route(fmt.Sprintf("/u3/text-file/f%d", i)); got != home {
			t.Fatalf("file %d of the same directory routed to %d, sibling to %d", i, got, home)
		}
	}
	// Islands must all see traffic across many directories.
	used := make(map[int]bool)
	for u := 0; u < 64; u++ {
		used[f.Route(fmt.Sprintf("/u%d/text-file/f0", u))] = true
	}
	if len(used) < 4 {
		t.Errorf("64 user directories landed on only %d of 8 islands", len(used))
	}
}

// TestFleetReplicateSystemReads checks the replicate placement: system-tree
// reads are served from the requesting user's home island, writes and
// non-system paths stay on the hash-designated primary.
func TestFleetReplicateSystemReads(t *testing.T) {
	f := testFleet(t, 4, 2, 11, true)
	const sys = "/sys/temporary/f1"
	for isl := 0; isl < 4; isl++ {
		if !f.Serves(isl, sys) {
			t.Errorf("island %d does not serve replicated system path", isl)
		}
	}
	for u := 0; u < 8; u++ {
		home := u % 4
		if got := f.ReadClientFor(u, sys); got != f.ClientFor(u, home) {
			t.Errorf("user %d reads system path off-home", u)
		}
	}
	user := "/u2/text-file/f0"
	primary := f.Route(user)
	for isl := 0; isl < 4; isl++ {
		if f.Serves(isl, user) != (isl == primary) {
			t.Errorf("island %d serving user path: want primary-only", isl)
		}
	}
}

// TestFleetPoolSlots checks the pooled-client provisioning: pool clients
// per island, users multiplexed user mod pool.
func TestFleetPoolSlots(t *testing.T) {
	const pool = 4
	f := testFleet(t, 2, pool, 3, false)
	for _, isl := range f.Islands() {
		if len(isl.Pool()) != pool {
			t.Fatalf("island has %d clients, want %d", len(isl.Pool()), pool)
		}
	}
	if f.ClientFor(1, 0) != f.ClientFor(1+pool, 0) {
		t.Error("users 1 and 1+pool should share a pool slot")
	}
	if f.ClientFor(1, 0) == f.ClientFor(2, 0) {
		t.Error("users 1 and 2 should use different pool slots")
	}
}

// TestFleetPrivateClients pins the private-client lifecycle: no pool slots,
// a user's client built at first use and then reused, distinct per user and
// per island, dropped by Release and rebuilt afresh after it. On one island
// the user's mount is its client itself.
func TestFleetPrivateClients(t *testing.T) {
	f := testFleet(t, 2, 0, 3, false)
	if f.Pooled() {
		t.Fatal("a fleet without a pool reports pooled")
	}
	for i, isl := range f.Islands() {
		if n := len(isl.Pool()); n != 0 {
			t.Errorf("island %d has %d pool slots, want 0", i, n)
		}
	}
	if f.Resident() != 0 {
		t.Fatalf("%d clients built before any use", f.Resident())
	}
	c := f.ClientFor(1, 0)
	if f.ClientFor(1, 0) != c {
		t.Error("a user's client is not reused")
	}
	if f.ClientFor(1, 1) == c || f.ClientFor(2, 0) == c {
		t.Error("private clients are shared across islands or users")
	}
	if f.Resident() != 3 {
		t.Errorf("resident = %d, want 3", f.Resident())
	}
	f.Release(1)
	if f.Resident() != 1 {
		t.Errorf("resident after release = %d, want 1 (user 2's)", f.Resident())
	}
	if f.ClientFor(1, 0) == c {
		t.Error("a released user got its old client back")
	}

	one := testFleet(t, 1, 0, 3, false)
	if fs, ok := one.FSForUser(2).(*Client); !ok || fs != one.ClientFor(2, 0) {
		t.Errorf("one-island private mount is %T, want the user's own client", one.FSForUser(2))
	}
	if _, ok := testFleet(t, 1, 2, 3, false).FSForUser(2).(*routerFS); !ok {
		t.Error("a pooled mount must be a router even on one island")
	}
}

// TestRouterFSTracksFDs drives a write/read through the router and checks FD
// ownership: ops on an FD go to the client that opened it, and an FD none of
// the principal's clients holds goes to the home client, which charges one
// system call and fails it with vfs.ErrBadFD.
func TestRouterFSTracksFDs(t *testing.T) {
	f := testFleet(t, 4, 2, 5, false)
	ctx := &vfs.ManualClock{}
	root := vfs.Sync{FS: f.SetupFS()}
	if err := root.Mkdir(ctx, "/u1"); err != nil {
		t.Fatal(err)
	}
	fsys := vfs.Sync{FS: f.FSForUser(1)}
	fd, err := fsys.Create(ctx, "/u1/f0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	start := ctx.Now()
	if _, err := fsys.Read(ctx, vfs.FD(99999), 10); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("read of unopened fd = %v, want ErrBadFD", err)
	}
	if got, want := ctx.Now()-start, testClientConfig().CPUPerCall; got != want {
		t.Errorf("failed read took %v µs, want one system call (%v µs)", got, want)
	}
	fd2, err := fsys.Open(ctx, "/u1/f0", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fsys.Read(ctx, fd2, 100); err != nil || n != 100 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if err := fsys.Close(ctx, fd2); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Read(ctx, fd2, 10); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("read of closed fd = %v, want ErrBadFD", err)
	}
}

// TestPooledCrashClosesCoTenantFD pins what a co-tenant sees when the user
// sharing its pool slot crashes: the crash closes every descriptor the
// slot's client holds, yet the co-tenant's router still routes its FD to the
// client, which charges one system call of CPU and then fails the read with
// ErrBadFD; the close fails with ErrBadFD too.
func TestPooledCrashClosesCoTenantFD(t *testing.T) {
	f := testFleet(t, 1, 1, 5, false)
	ctx := &vfs.ManualClock{}
	if err := (&vfs.Sync{FS: f.SetupFS()}).Mkdir(ctx, "/u1"); err != nil {
		t.Fatal(err)
	}
	crasher, tenant := f.FSForUser(0), vfs.Sync{FS: f.FSForUser(1)}
	fd, err := tenant.Create(ctx, "/u1/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tenant.Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	crasher.(vfs.Crasher).Crash()

	start := ctx.Now()
	if _, err := tenant.Read(ctx, fd, 10); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("co-tenant read after crash = %v, want ErrBadFD", err)
	}
	if got, want := ctx.Now()-start, testClientConfig().CPUPerCall; got != want {
		t.Errorf("failed read took %v µs, want one system call (%v µs)", got, want)
	}
	if err := tenant.Close(ctx, fd); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("co-tenant close after crash = %v, want ErrBadFD", err)
	}
}
