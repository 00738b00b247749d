package realfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"uswg/internal/fault"
	"uswg/internal/vfs"
)

func newTestFS(t *testing.T) *FS {
	t.Helper()
	fs, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestEINTRRetryLoop: a hook that interrupts the first attempts of every
// syscall must be invisible to callers — the adapter retries, the operation
// succeeds, and the retries are counted.
func TestEINTRRetryLoop(t *testing.T) {
	fs := newTestFS(t)
	calls := 0
	fs.SetHooks(&Hooks{Before: func(op, path string) error {
		calls++
		if calls%3 != 0 { // two EINTRs, then the attempt goes through
			return syscall.EINTR
		}
		return nil
	}})
	ctx := &vfs.ManualClock{}
	sfs := vfs.Sync{FS: fs}
	fd, err := sfs.Create(ctx, "/f")
	if err != nil {
		t.Fatalf("create under EINTR storm: %v", err)
	}
	if _, err := sfs.Write(ctx, fd, 1000); err != nil {
		t.Fatalf("write under EINTR storm: %v", err)
	}
	if err := sfs.Close(ctx, fd); err != nil {
		t.Fatalf("close under EINTR storm: %v", err)
	}
	info, err := sfs.Stat(ctx, "/f")
	if err != nil {
		t.Fatalf("stat under EINTR storm: %v", err)
	}
	if info.Size != 1000 {
		t.Errorf("file size %d, want 1000", info.Size)
	}
	if fs.EINTRRetries() == 0 {
		t.Error("no EINTR retries counted")
	}
}

// TestEINTRStormEventuallySurfaces: past the retry budget the interruption
// becomes the caller's error instead of wedging the adapter.
func TestEINTRStormEventuallySurfaces(t *testing.T) {
	fs := newTestFS(t)
	fs.SetHooks(&Hooks{Before: func(op, path string) error { return syscall.EINTR }})
	_, err := (&vfs.Sync{FS: fs}).Create(&vfs.ManualClock{}, "/f")
	if !errors.Is(err, vfs.ErrInterrupted) {
		t.Fatalf("endless EINTR returned %v, want ErrInterrupted", err)
	}
}

// TestENOSPCMidWrite: the disk fills partway through a large write. The
// adapter must report the prefix that landed together with ErrNoSpace, and
// the host file must hold exactly that prefix.
func TestENOSPCMidWrite(t *testing.T) {
	fs := newTestFS(t)
	ctx := &vfs.ManualClock{}
	sfs := vfs.Sync{FS: fs}
	fd, err := sfs.Create(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	fs.SetHooks(&Hooks{Before: func(op, path string) error {
		if op != "write" {
			return nil
		}
		writes++
		if writes > 1 {
			return syscall.ENOSPC
		}
		return nil
	}})
	// 100000 B spans two 64 KiB buffer chunks: first lands, second hits
	// ENOSPC.
	got, err := sfs.Write(ctx, fd, 100000)
	if !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("mid-write error %v, want ErrNoSpace", err)
	}
	if got != 64<<10 {
		t.Errorf("partial write reported %d bytes, want %d", got, 64<<10)
	}
	fs.SetHooks(nil)
	if err := sfs.Close(ctx, fd); err != nil {
		t.Fatalf("close after ENOSPC: %v", err)
	}
	host, err := os.Stat(filepath.Join(fs.Root(), "big"))
	if err != nil {
		t.Fatal(err)
	}
	if host.Size() != 64<<10 {
		t.Errorf("host file holds %d bytes, want %d (the landed prefix)", host.Size(), 64<<10)
	}
}

// TestShortWritesAbsorbed: a hook that shortens every chunk models a host
// that accepts partial writes; the adapter loops until the full count lands.
func TestShortWritesAbsorbed(t *testing.T) {
	fs := newTestFS(t)
	chunks := 0
	fs.SetHooks(&Hooks{Chunk: func(op string, n int) int {
		if op != "write" || n <= 1 {
			return n
		}
		chunks++
		return n / 2
	}})
	ctx := &vfs.ManualClock{}
	sfs := vfs.Sync{FS: fs}
	fd, err := sfs.Create(ctx, "/s")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sfs.Write(ctx, fd, 5000)
	if err != nil || got != 5000 {
		t.Fatalf("short-write stream = (%d, %v), want (5000, nil)", got, err)
	}
	if chunks < 2 {
		t.Errorf("chunk hook consulted %d times, want several (short writes retried)", chunks)
	}
	if err := sfs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	info, err := sfs.Stat(ctx, "/s")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 5000 {
		t.Errorf("file size %d, want 5000", info.Size)
	}
}

// TestShortReadsAbsorbed mirrors the write case for reads.
func TestShortReadsAbsorbed(t *testing.T) {
	fs := newTestFS(t)
	ctx := &vfs.ManualClock{}
	sfs := vfs.Sync{FS: fs}
	fd, err := sfs.Create(ctx, "/r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sfs.Write(ctx, fd, 4096); err != nil {
		t.Fatal(err)
	}
	if err := sfs.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	fs.SetHooks(&Hooks{Chunk: func(op string, n int) int {
		if op != "read" || n <= 1 {
			return n
		}
		return n / 4
	}})
	fd, err = sfs.Open(ctx, "/r", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sfs.Read(ctx, fd, 4096)
	if err != nil || got != 4096 {
		t.Fatalf("short-read stream = (%d, %v), want (4096, nil)", got, err)
	}
}

// TestEngineOSHooks drives the adapter through the fault engine's os-level
// attach point: a plan with EINTR and short-write rules on host writes must
// still let every operation complete.
func TestEngineOSHooks(t *testing.T) {
	eng, err := fault.NewEngine(&fault.Plan{
		Name: "host",
		Rules: []fault.Rule{
			{Name: "interrupt", Ops: []string{"os.write", "os.read"}, Prob: 0.3, Err: fault.EINTR},
		},
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	fs := newTestFS(t)
	fs.SetHooks(&Hooks{Before: eng.OSBefore(), Chunk: eng.OSChunk()})
	ctx := &vfs.ManualClock{}
	sfs := vfs.Sync{FS: fs}
	for i := 0; i < 20; i++ {
		fd, err := sfs.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sfs.Write(ctx, fd, 2000); err != nil {
			t.Fatalf("write %d under engine faults: %v", i, err)
		}
		if err := sfs.Close(ctx, fd); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Injected() == 0 {
		t.Error("engine injected nothing at 30% over 20 iterations")
	}
	if fs.EINTRRetries() == 0 {
		t.Error("no EINTR retries recorded against the engine")
	}
}
