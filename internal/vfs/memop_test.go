package vfs

import (
	"fmt"
	"reflect"
	"testing"

	"uswg/internal/sim"
)

// freeOps counts the call states on the LocalCost free list.
func freeOps(lc *LocalCost) int {
	n := 0
	for op := lc.opFree; op != nil; op = op.next {
		n++
	}
	return n
}

// chargedFile returns a LocalCost holding /f (8 KiB), on a synchronous
// clock.
func chargedFile(tb testing.TB) (*LocalCost, *ManualClock) {
	tb.Helper()
	m := NewLocalCost(sim.NewEnv(), testCostConfig(), NewMemFS())
	ctx := &ManualClock{}
	fs := Sync{FS: m}
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, 8192); err != nil {
		tb.Fatal(err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		tb.Fatal(err)
	}
	return m, ctx
}

// TestMemOpSteadyStateAllocs pins the pooled call states: once the
// LocalCost's pool and the descriptor table are warm, a charged op cycle
// allocates nothing — called in continuation style, and through one Sync
// once its result continuations are bound. Sequential calls share one
// state.
func TestMemOpSteadyStateAllocs(t *testing.T) {
	m, ctx := chargedFile(t)
	var fd FD
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	onFD := func(f FD, err error) { fd = f; check(err) }
	onN := func(_ int64, err error) { check(err) }
	onInfo := func(_ FileInfo, err error) { check(err) }
	cycle := func() {
		m.Open(ctx, "/f", ReadWrite, onFD)
		m.Read(ctx, fd, 4096, onN)
		m.Write(ctx, fd, 4096, onN)
		m.Seek(ctx, fd, 0, SeekStart, onN)
		m.Stat(ctx, "/f", onInfo)
		m.Close(ctx, fd, check)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state op cycle allocates %v times, want 0", allocs)
	}
	s := &Sync{FS: m}
	syncCycle := func() {
		fd, err := s.Open(ctx, "/f", ReadWrite)
		check(err)
		_, err = s.Read(ctx, fd, 4096)
		check(err)
		_, err = s.Write(ctx, fd, 4096)
		check(err)
		_, err = s.Seek(ctx, fd, 0, SeekStart)
		check(err)
		_, err = s.Stat(ctx, "/f")
		check(err)
		check(s.Close(ctx, fd))
	}
	syncCycle()
	if allocs := testing.AllocsPerRun(100, syncCycle); allocs != 0 {
		t.Errorf("steady-state op cycle through a Sync allocates %v times, want 0", allocs)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	if m.opsMade != 1 || freeOps(m) != 1 {
		t.Errorf("sequential ops made %d states, %d free; want 1 and 1", m.opsMade, freeOps(m))
	}
}

// bareFS presents Bare's call-and-return operations as a FileSystem, the
// reference the pooled path is compared against.
type bareFS struct{ b Bare }

func (f bareFS) Mkdir(_ Ctx, p string, k func(error)) { k(f.b.Mkdir(p)) }
func (f bareFS) Create(_ Ctx, p string, k func(FD, error)) {
	fd, _, err := f.b.Create(p, nil)
	k(fd, err)
}
func (f bareFS) Open(_ Ctx, p string, m OpenMode, k func(FD, error)) { k(f.b.Open(p, m, nil)) }
func (f bareFS) Read(_ Ctx, fd FD, n int64, k func(int64, error)) {
	_, _, _, m, err := f.b.Advance(fd, n, false, nil)
	k(m, err)
}
func (f bareFS) Write(_ Ctx, fd FD, n int64, k func(int64, error)) {
	_, _, _, m, err := f.b.Advance(fd, n, true, nil)
	k(m, err)
}
func (f bareFS) Seek(_ Ctx, fd FD, off int64, wh int, k func(int64, error)) {
	k(f.b.Seek(fd, off, wh, nil))
}
func (f bareFS) Close(_ Ctx, fd FD, k func(error)) { k(f.b.Close(fd, nil)) }
func (f bareFS) Unlink(_ Ctx, p string, k func(error)) {
	_, err := f.b.Unlink(p)
	k(err)
}
func (f bareFS) Stat(_ Ctx, p string, k func(FileInfo, error))    { k(f.b.Stat(p)) }
func (f bareFS) ReadDir(_ Ctx, p string, k func([]string, error)) { k(f.b.ReadDir(p)) }

// chainOps runs a fixed op script in which every step is issued from the
// previous step's continuation, before it returns, and logs each result.
func chainOps(ctx Ctx, fs FileSystem) []string {
	var out []string
	logf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	var fd1, fd2 FD
	steps := []func(k func()){
		func(k func()) { fs.Mkdir(ctx, "/d", func(err error) { logf("mkdir %v", err); k() }) },
		func(k func()) {
			fs.Create(ctx, "/d/f", func(fd FD, err error) { fd1 = fd; logf("create %d %v", fd, err); k() })
		},
		func(k func()) {
			fs.Write(ctx, fd1, 5000, func(n int64, err error) { logf("write %d %v", n, err); k() })
		},
		func(k func()) { fs.Close(ctx, fd1, func(err error) { logf("close %v", err); k() }) },
		func(k func()) {
			fs.Open(ctx, "/d/f", ReadWrite, func(fd FD, err error) { fd2 = fd; logf("open %d %v", fd, err); k() })
		},
		func(k func()) { fs.Read(ctx, fd2, 4096, func(n int64, err error) { logf("read %d %v", n, err); k() }) },
		func(k func()) { fs.Read(ctx, fd2, 4096, func(n int64, err error) { logf("read %d %v", n, err); k() }) },
		func(k func()) { fs.Read(ctx, fd2, 4096, func(n int64, err error) { logf("read %d %v", n, err); k() }) },
		func(k func()) { fs.Write(ctx, fd2, 100, func(n int64, err error) { logf("write %d %v", n, err); k() }) },
		func(k func()) {
			fs.Seek(ctx, fd2, -50, SeekEnd, func(p int64, err error) { logf("seek %d %v", p, err); k() })
		},
		func(k func()) {
			fs.Stat(ctx, "/d/f", func(fi FileInfo, err error) { logf("stat %+v %v", fi, err); k() })
		},
		func(k func()) {
			fs.ReadDir(ctx, "/d", func(ns []string, err error) { logf("readdir %v %v", ns, err); k() })
		},
		func(k func()) { fs.Close(ctx, fd2, func(err error) { logf("close %v", err); k() }) },
		func(k func()) { fs.Unlink(ctx, "/d/f", func(err error) { logf("unlink %v", err); k() }) },
		func(k func()) {
			fs.Stat(ctx, "/d/f", func(fi FileInfo, err error) { logf("stat %+v %v", fi, err); k() })
		},
		func(k func()) { fs.Close(ctx, fd2, func(err error) { logf("close %v", err); k() }) },
		func(k func()) { fs.Mkdir(ctx, "/d", func(err error) { logf("mkdir %v", err); k() }) },
		func(k func()) { fs.Read(ctx, fd1, 1, func(n int64, err error) { logf("read %d %v", n, err); k() }) },
	}
	var run func(i int)
	run = func(i int) {
		if i < len(steps) {
			steps[i](func() { run(i + 1) })
		}
	}
	run(0)
	return out
}

// TestMemOpReentrantMatchesBare issues each op on the local file system
// from inside the previous op's continuation: the state is recycled before
// the continuation runs, so the nested op reuses it, and every result must
// still match the cost-free Bare facade.
func TestMemOpReentrantMatchesBare(t *testing.T) {
	m := NewLocalCost(sim.NewEnv(), testCostConfig(), NewMemFS())
	got := chainOps(&ManualClock{}, m)
	want := chainOps(&ManualClock{}, bareFS{NewMemFS().Bare()})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("charged chain diverged from Bare:\n got %q\nwant %q", got, want)
	}
	if m.opsMade != 1 || freeOps(m) != 1 {
		t.Errorf("nested ops made %d states, %d free; want 1 and 1 (state not recycled before k)", m.opsMade, freeOps(m))
	}
}

// TestLocalOpCost pins what making a call state costs: taken from an
// emptied free list and put back, it allocates the state and its one bound
// continuation.
func TestLocalOpCost(t *testing.T) {
	lc := NewLocalCost(sim.NewEnv(), testCostConfig(), NewMemFS())
	cycle := func() { lc.opFree = nil; lc.putOp(lc.getOp(nil)) }
	if n := testing.AllocsPerRun(100, cycle); n != 2 {
		t.Errorf("getOp on an empty free list: %v allocations, want 2", n)
	}
}

// BenchmarkMemFSOp times one open/read/write/close cycle through the local
// file system over a MemFS namespace on a synchronous clock, all cache hits.
func BenchmarkMemFSOp(b *testing.B) {
	m, ctx := chargedFile(b)
	var fd FD
	onFD := func(f FD, err error) {
		if err != nil {
			b.Fatal(err)
		}
		fd = f
	}
	onN := func(_ int64, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	onErr := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		m.Open(ctx, "/f", ReadWrite, onFD)
		m.Read(ctx, fd, 4096, onN)
		m.Write(ctx, fd, 4096, onN)
		m.Close(ctx, fd, onErr)
	}
}
