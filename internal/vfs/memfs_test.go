package vfs

import (
	"errors"
	"testing"
	"testing/quick"
)

// syncMemFS drives a MemFS through the Sync adapter (ManualClock never
// suspends, so every continuation completes inline) while keeping the
// MemFS-specific helpers reachable via M.
type syncMemFS struct {
	Sync
	M *MemFS
}

func wrapFS(m *MemFS) *syncMemFS { return &syncMemFS{Sync: Sync{FS: m}, M: m} }

func newFS() (*syncMemFS, *ManualClock) {
	return wrapFS(NewMemFS()), &ManualClock{}
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr bool
	}{
		{"/", []string{}, false},
		{"/a/b", []string{"a", "b"}, false},
		{"/a//b/", []string{"a", "b"}, false},
		{"/a/./b", []string{"a", "b"}, false},
		{"/a/../b", []string{"b"}, false},
		{"/..", nil, true},
		{"relative", nil, true},
		{"", nil, true},
	}
	for _, c := range cases {
		got, err := SplitPath(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("SplitPath(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitPath(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestMkdirAndStat(t *testing.T) {
	fs, ctx := newFS()
	if err := fs.Mkdir(ctx, "/home"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(ctx, "/home")
	if err != nil {
		t.Fatal(err)
	}
	if !info.IsDir {
		t.Error("expected directory")
	}
	if err := fs.Mkdir(ctx, "/home"); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate mkdir = %v, want ErrExist", err)
	}
	if err := fs.Mkdir(ctx, "/no/such/parent"); !errors.Is(err, ErrNotExist) {
		t.Errorf("mkdir without parent = %v, want ErrNotExist", err)
	}
}

func TestMkdirAll(t *testing.T) {
	fs, ctx := newFS()
	if err := fs.M.MkdirAll(ctx, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ctx, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := fs.M.MkdirAll(ctx, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	fs, ctx := newFS()
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fs.Write(ctx, fd, 1000); err != nil || n != 1000 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 1000 {
		t.Errorf("size = %d, want 1000", info.Size)
	}

	rfd, err := fs.Open(ctx, "/f", ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fs.Read(ctx, rfd, 600); err != nil || n != 600 {
		t.Fatalf("first read = %d, %v", n, err)
	}
	if n, err := fs.Read(ctx, rfd, 600); err != nil || n != 400 {
		t.Fatalf("short read = %d, %v; want 400", n, err)
	}
	if n, err := fs.Read(ctx, rfd, 600); err != nil || n != 0 {
		t.Fatalf("EOF read = %d, %v; want 0", n, err)
	}
	if err := fs.Close(ctx, rfd); err != nil {
		t.Fatal(err)
	}
}

func TestOpenErrors(t *testing.T) {
	fs, ctx := newFS()
	if _, err := fs.Open(ctx, "/missing", ReadOnly); !errors.Is(err, ErrNotExist) {
		t.Errorf("open missing = %v, want ErrNotExist", err)
	}
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open(ctx, "/d", ReadOnly); !errors.Is(err, ErrIsDir) {
		t.Errorf("open dir = %v, want ErrIsDir", err)
	}
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open(ctx, "/f", OpenMode(0)); !errors.Is(err, ErrInvalid) {
		t.Errorf("invalid mode = %v, want ErrInvalid", err)
	}
	if _, err := fs.Open(ctx, "/f/x", ReadOnly); !errors.Is(err, ErrNotDir) {
		t.Errorf("file as directory = %v, want ErrNotDir", err)
	}
}

func TestModeEnforcement(t *testing.T) {
	fs, ctx := newFS()
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(ctx, fd, 10); !errors.Is(err, ErrBadMode) {
		t.Errorf("read on write-only = %v, want ErrBadMode", err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	rfd, err := fs.Open(ctx, "/f", ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, rfd, 10); !errors.Is(err, ErrBadMode) {
		t.Errorf("write on read-only = %v, want ErrBadMode", err)
	}
	if err := fs.Close(ctx, rfd); err != nil {
		t.Fatal(err)
	}
}

func TestBadFD(t *testing.T) {
	fs, ctx := newFS()
	if _, err := fs.Read(ctx, 99, 10); !errors.Is(err, ErrBadFD) {
		t.Errorf("read bad fd = %v, want ErrBadFD", err)
	}
	if _, err := fs.Write(ctx, 99, 10); !errors.Is(err, ErrBadFD) {
		t.Errorf("write bad fd = %v, want ErrBadFD", err)
	}
	if err := fs.Close(ctx, 99); !errors.Is(err, ErrBadFD) {
		t.Errorf("close bad fd = %v, want ErrBadFD", err)
	}
	if _, err := fs.Seek(ctx, 99, 0, SeekStart); !errors.Is(err, ErrBadFD) {
		t.Errorf("seek bad fd = %v, want ErrBadFD", err)
	}
}

func TestDoubleCloseFails(t *testing.T) {
	fs, ctx := newFS()
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(ctx, fd); !errors.Is(err, ErrBadFD) {
		t.Errorf("double close = %v, want ErrBadFD", err)
	}
}

func TestSeek(t *testing.T) {
	fs, ctx := newFS()
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	rw, err := fs.Open(ctx, "/f", ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if pos, err := fs.Seek(ctx, rw, 50, SeekStart); err != nil || pos != 50 {
		t.Fatalf("SeekStart = %d, %v", pos, err)
	}
	if pos, err := fs.Seek(ctx, rw, 10, SeekCurrent); err != nil || pos != 60 {
		t.Fatalf("SeekCurrent = %d, %v", pos, err)
	}
	if pos, err := fs.Seek(ctx, rw, -10, SeekEnd); err != nil || pos != 90 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	if _, err := fs.Seek(ctx, rw, -200, SeekCurrent); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative seek = %v, want ErrInvalid", err)
	}
	if _, err := fs.Seek(ctx, rw, 0, 42); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad whence = %v, want ErrInvalid", err)
	}
	// Writing past EOF after a forward seek extends the file.
	if _, err := fs.Seek(ctx, rw, 200, SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, rw, 10); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 210 {
		t.Errorf("size after sparse write = %d, want 210", info.Size)
	}
	if err := fs.Close(ctx, rw); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkSemantics(t *testing.T) {
	fs, ctx := newFS()
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, 500); err != nil {
		t.Fatal(err)
	}
	// UNIX: unlink while open; data remains readable through the fd.
	if err := fs.Unlink(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ctx, "/f"); !errors.Is(err, ErrNotExist) {
		t.Errorf("stat after unlink = %v, want ErrNotExist", err)
	}
	if _, err := fs.Seek(ctx, fd, 0, SeekStart); err != nil {
		t.Fatal(err)
	}
	// fd is write-only; but seek/write still work against the orphan inode.
	if _, err := fs.Write(ctx, fd, 10); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(ctx, "/f"); !errors.Is(err, ErrNotExist) {
		t.Errorf("second unlink = %v, want ErrNotExist", err)
	}
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(ctx, "/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("unlink dir = %v, want ErrIsDir", err)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	fs, ctx := newFS()
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	fd2, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(ctx, fd2); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 0 {
		t.Errorf("size after truncating create = %d, want 0", info.Size)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs, ctx := newFS()
	for _, p := range []string{"/c", "/a", "/b"} {
		fd, err := fs.Create(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(ctx, fd); err != nil {
			t.Fatal(err)
		}
	}
	names, err := fs.ReadDir(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ReadDir = %v, want %v", names, want)
		}
	}
	if _, err := fs.ReadDir(ctx, "/a"); !errors.Is(err, ErrNotDir) {
		t.Errorf("readdir on file = %v, want ErrNotDir", err)
	}
	if _, err := fs.ReadDir(ctx, "/zzz"); !errors.Is(err, ErrNotExist) {
		t.Errorf("readdir missing = %v, want ErrNotExist", err)
	}
}

func TestFDLimit(t *testing.T) {
	fs := wrapFS(NewMemFS(WithMaxFDs(2)))
	ctx := &ManualClock{}
	fd1, err := fs.Create(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, "/c"); !errors.Is(err, ErrTooManyFD) {
		t.Errorf("third open = %v, want ErrTooManyFD", err)
	}
	if err := fs.Close(ctx, fd1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, "/c"); err != nil {
		t.Errorf("open after close = %v", err)
	}
}

// truncCounter is a cost-free model that counts Truncate charges.
type truncCounter struct {
	NoCost
	n int
}

func (c *truncCounter) Truncate(Ctx, uint64) { c.n++ }

// TestRefusedCreateLeavesNamespace: a Create refused for want of a
// descriptor changes nothing. It keeps an existing file's size, charges no
// Truncate, and links no new file. The lookup and directory errors still
// come first.
func TestRefusedCreateLeavesNamespace(t *testing.T) {
	cost := &truncCounter{}
	fs := wrapFS(NewMemFS(WithMaxFDs(1), WithCostModel(cost)))
	ctx := &ManualClock{}
	fd, err := fs.Create(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, "/a"); !errors.Is(err, ErrTooManyFD) {
		t.Errorf("create of an existing file with the table full = %v, want ErrTooManyFD", err)
	}
	if info, err := fs.Stat(ctx, "/a"); err != nil || info.Size != 100 {
		t.Errorf("after the refused create, /a = %+v, %v; want size 100", info, err)
	}
	if cost.n != 0 {
		t.Errorf("the refused create charged %d truncates, want 0", cost.n)
	}
	if _, err := fs.Create(ctx, "/b"); !errors.Is(err, ErrTooManyFD) {
		t.Errorf("create of a new file with the table full = %v, want ErrTooManyFD", err)
	}
	if _, err := fs.Stat(ctx, "/b"); !errors.Is(err, ErrNotExist) {
		t.Errorf("after the refused create, stat /b = %v, want ErrNotExist", err)
	}
	if _, err := fs.Create(ctx, "/no/b"); !errors.Is(err, ErrNotExist) {
		t.Errorf("create under a missing directory with the table full = %v, want ErrNotExist", err)
	}
	if _, err := fs.Create(ctx, "/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("create of a directory with the table full = %v, want ErrIsDir", err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, "/a"); err != nil || cost.n != 1 {
		t.Errorf("create after close = %v with %d truncates, want nil and 1", err, cost.n)
	}
}

func TestSequentialReadInvariant(t *testing.T) {
	// Property: a sequence of sequential reads never returns more total
	// bytes than the file size, and the sum of full reads equals the size.
	f := func(size uint16, chunk uint8) bool {
		fs, ctx := newFS()
		fd, err := fs.Create(ctx, "/f")
		if err != nil {
			return false
		}
		if _, err := fs.Write(ctx, fd, int64(size)); err != nil {
			return false
		}
		if err := fs.Close(ctx, fd); err != nil {
			return false
		}
		rfd, err := fs.Open(ctx, "/f", ReadOnly)
		if err != nil {
			return false
		}
		defer func() { _ = fs.Close(ctx, rfd) }()
		c := int64(chunk) + 1
		var total int64
		for {
			n, err := fs.Read(ctx, rfd, c)
			if err != nil {
				return false
			}
			if n == 0 {
				break
			}
			total += n
		}
		return total == int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTotalBytes(t *testing.T) {
	fs, ctx := newFS()
	if err := fs.M.MkdirAll(ctx, "/u/0"); err != nil {
		t.Fatal(err)
	}
	for i, size := range []int64{100, 200, 300} {
		path := "/u/0/f" + string(rune('a'+i))
		fd, err := fs.Create(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(ctx, fd, size); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(ctx, fd); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.M.TotalBytes(); got != 600 {
		t.Errorf("TotalBytes = %d, want 600", got)
	}
	if got := fs.M.OpenFDs(); got != 0 {
		t.Errorf("OpenFDs = %d, want 0", got)
	}
}

func TestNegativeReadWriteSizes(t *testing.T) {
	fs, ctx := newFS()
	fd, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, -5); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative write = %v, want ErrInvalid", err)
	}
	if err := fs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	rfd, err := fs.Open(ctx, "/f", ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(ctx, rfd, -5); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative read = %v, want ErrInvalid", err)
	}
	if err := fs.Close(ctx, rfd); err != nil {
		t.Fatal(err)
	}
}

func TestOpenModeString(t *testing.T) {
	cases := map[OpenMode]string{
		ReadOnly: "ro", WriteOnly: "wo", ReadWrite: "rw", OpenMode(0): "invalid",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}
