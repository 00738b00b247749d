package realfs

import (
	"errors"
	"testing"

	"uswg/internal/vfs"
)

// sfs wraps the adapter in call-and-return form; wall clocks never suspend.
func sfs(f *FS) *vfs.Sync { return &vfs.Sync{FS: f} }

func newFS(t *testing.T) *FS {
	t.Helper()
	f, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewRejectsMissingRoot(t *testing.T) {
	if _, err := New("/does/not/exist"); err == nil {
		t.Error("missing root should be rejected")
	}
}

func TestNewRejectsFileRoot(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	fd, err := sfs(f).Create(ctx, "/plain")
	if err != nil {
		t.Fatal(err)
	}
	if err := sfs(f).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if _, err := New(f.Root() + "/plain"); err == nil {
		t.Error("file root should be rejected")
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	fd, err := sfs(f).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sfs(f).Write(ctx, fd, 10000); err != nil || n != 10000 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := sfs(f).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}

	info, err := sfs(f).Stat(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 10000 {
		t.Errorf("size = %d, want 10000", info.Size)
	}

	rfd, err := sfs(f).Open(ctx, "/f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sfs(f).Read(ctx, rfd, 99999); err != nil || n != 10000 {
		t.Fatalf("read = %d, %v; want 10000", n, err)
	}
	if n, err := sfs(f).Read(ctx, rfd, 10); err != nil || n != 0 {
		t.Fatalf("read at EOF = %d, %v; want 0", n, err)
	}
	if err := sfs(f).Close(ctx, rfd); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTransferUsesChunking(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	const size = 200 << 10 // larger than the 64 KiB scratch buffer
	fd, err := sfs(f).Create(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sfs(f).Write(ctx, fd, size); err != nil || n != size {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := sfs(f).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	rfd, err := sfs(f).Open(ctx, "/big", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sfs(f).Read(ctx, rfd, size); err != nil || n != size {
		t.Fatalf("read = %d, %v", n, err)
	}
	if err := sfs(f).Close(ctx, rfd); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirAndReadDir(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	if err := sfs(f).Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/d/b", "/d/a"} {
		fd, err := sfs(f).Create(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sfs(f).Close(ctx, fd); err != nil {
			t.Fatal(err)
		}
	}
	names, err := sfs(f).ReadDir(ctx, "/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("readdir = %v, want [a b]", names)
	}
}

func TestSeekWhence(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	fd, err := sfs(f).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sfs(f).Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	if pos, err := sfs(f).Seek(ctx, fd, 0, vfs.SeekStart); err != nil || pos != 0 {
		t.Errorf("seek start = %d, %v", pos, err)
	}
	if pos, err := sfs(f).Seek(ctx, fd, 10, vfs.SeekCurrent); err != nil || pos != 10 {
		t.Errorf("seek current = %d, %v", pos, err)
	}
	if pos, err := sfs(f).Seek(ctx, fd, 0, vfs.SeekEnd); err != nil || pos != 100 {
		t.Errorf("seek end = %d, %v", pos, err)
	}
	if err := sfs(f).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
}

func TestUnlink(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	fd, err := sfs(f).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sfs(f).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if err := sfs(f).Unlink(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := sfs(f).Stat(ctx, "/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("stat after unlink: %v", err)
	}
	if err := sfs(f).Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := sfs(f).Unlink(ctx, "/d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("unlink dir: %v, want ErrIsDir", err)
	}
}

func TestErrnoMapping(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	if _, err := sfs(f).Open(ctx, "/missing", vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("open missing: %v", err)
	}
	if err := sfs(f).Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := sfs(f).Mkdir(ctx, "/d"); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("mkdir existing: %v", err)
	}
}

func TestSandboxEscapeRejected(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	for _, path := range []string{"/../evil", "/a/../../evil", "relative", ""} {
		if _, err := sfs(f).Open(ctx, path, vfs.ReadOnly); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("path %q: %v, want ErrInvalid", path, err)
		}
	}
}

func TestBadFDOperations(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	if _, err := sfs(f).Read(ctx, 42, 1); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("read: %v", err)
	}
	if _, err := sfs(f).Write(ctx, 42, 1); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("write: %v", err)
	}
	if err := sfs(f).Close(ctx, 42); !errors.Is(err, vfs.ErrBadFD) {
		t.Errorf("close: %v", err)
	}
}

func TestOpenFDs(t *testing.T) {
	f := newFS(t)
	ctx := NewWallClock()
	fd, err := sfs(f).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if f.OpenFDs() != 1 {
		t.Errorf("open fds = %d, want 1", f.OpenFDs())
	}
	if err := sfs(f).Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if f.OpenFDs() != 0 {
		t.Errorf("open fds = %d, want 0", f.OpenFDs())
	}
}

func TestWallClock(t *testing.T) {
	c := NewWallClock()
	t0 := c.Now()
	c.Hold(1000, func() {}) // 1 ms
	if c.Now()-t0 < 900 {
		t.Errorf("Hold(1000) advanced only %v µs", c.Now()-t0)
	}
	c.Hold(-5, func() {}) // negative holds are ignored
}
