// Package realfs adapts the host file system to the vfs.FileSystem
// interface, so the User Simulator can drive a real file system — the mode
// the thesis's experiments used against SUN NFS. Operations execute actual
// system calls inside a sandbox root; reads and writes move real bytes.
//
// Time is wall-clock: use NewWallClock as the Ctx, and elapsed time measured
// around each call is the genuine response time of the host's file system.
// In the pipeline this package replaces the whole DES stage with the real
// world; workload, trace, and analysis run unchanged above it.
package realfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"uswg/internal/vfs"
)

// WallClock is a Ctx backed by the host's monotonic clock. Hold sleeps,
// which makes think times real delays when driving a real file system.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a clock whose zero is now.
func NewWallClock() *WallClock {
	//wlint:allow rngdiscipline this type IS the wall-clock adapter for real-filesystem runs
	return &WallClock{start: time.Now()}
}

var _ vfs.Ctx = (*WallClock)(nil)

// Now returns microseconds since the clock was created.
func (c *WallClock) Now() float64 {
	return float64(time.Since(c.start)) / float64(time.Microsecond)
}

// Hold sleeps for d microseconds, then runs k inline — a wall clock never
// suspends its caller's stack.
func (c *WallClock) Hold(d float64, k func()) {
	if d > 0 {
		time.Sleep(time.Duration(d * float64(time.Microsecond)))
	}
	k()
}

// Hooks intercept host syscalls for fault injection (the fault engine's
// os-level attach point). Both fields are optional.
type Hooks struct {
	// Before is consulted ahead of each syscall attempt; a non-nil error is
	// treated as that attempt's own failure (return real errnos:
	// syscall.EINTR is retried like a genuinely interrupted call,
	// syscall.ENOSPC aborts a write mid-stream, ...).
	Before func(op, path string) error
	// Chunk may shorten one data-transfer chunk of n bytes — a short read
	// or write the adapter must absorb by looping.
	Chunk func(op string, n int) int
}

// eintrMaxRetries bounds the EINTR retry loops: a genuinely interrupted call
// is retried, a pathological signal storm eventually surfaces as
// vfs.ErrInterrupted instead of wedging the generator.
const eintrMaxRetries = 64

// FS drives the host file system under a root directory. All paths given to
// its methods are absolute within the sandbox ("/u1/f0" maps to
// root/u1/f0); escapes via .. are rejected.
type FS struct {
	root string

	mu     sync.Mutex
	files  map[vfs.FD]*os.File
	nextFD vfs.FD
	buf    []byte // scratch for data transfers, guarded by mu
	hooks  *Hooks

	eintrRetries int64
}

var _ vfs.FileSystem = (*FS)(nil)

// New returns an adapter rooted at dir, which must exist.
func New(dir string) (*FS, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("realfs: root: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("realfs: root %q: %w", dir, vfs.ErrNotDir)
	}
	return &FS{
		root:   dir,
		files:  make(map[vfs.FD]*os.File),
		nextFD: 3,
		buf:    make([]byte, 64<<10),
	}, nil
}

// SetHooks attaches (or, with nil, detaches) the fault-injection hooks.
func (f *FS) SetHooks(h *Hooks) {
	f.mu.Lock()
	f.hooks = h
	f.mu.Unlock()
}

// attempt runs fn as one host syscall with the Before hook applied and EINTR
// retried, the way libc-era code wrapped every syscall in a retry loop. Any
// other hook or syscall error is the operation's result.
func (f *FS) attempt(op, path string, fn func() error) error {
	hooks := f.hooksSnapshot()
	for tries := 0; ; tries++ {
		if hooks != nil && hooks.Before != nil {
			if err := hooks.Before(op, path); err != nil {
				if errors.Is(err, syscall.EINTR) && tries < eintrMaxRetries {
					f.countRetry()
					continue
				}
				return err
			}
		}
		err := fn()
		if errors.Is(err, syscall.EINTR) && tries < eintrMaxRetries {
			f.countRetry()
			continue
		}
		return err
	}
}

func (f *FS) hooksSnapshot() *Hooks {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hooks
}

func (f *FS) countRetry() {
	f.mu.Lock()
	f.eintrRetries++
	f.mu.Unlock()
}

// resolve maps a sandbox-absolute path to a host path.
func (f *FS) resolve(path string) (string, error) {
	segs, err := vfs.SplitPath(path)
	if err != nil {
		return "", fmt.Errorf("%w: %q", vfs.ErrInvalid, path)
	}
	for _, s := range segs {
		if s == ".." {
			return "", fmt.Errorf("%w: %q escapes the sandbox", vfs.ErrInvalid, path)
		}
	}
	return filepath.Join(f.root, filepath.Join(segs...)), nil
}

// mapErr converts an os error into the shared errno-style errors.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, err)
	case errors.Is(err, fs.ErrExist):
		return fmt.Errorf("%w: %s", vfs.ErrExist, err)
	case errors.Is(err, syscall.ENOSPC):
		return fmt.Errorf("%w: %s", vfs.ErrNoSpace, err)
	case errors.Is(err, syscall.EINTR):
		return fmt.Errorf("%w: %s", vfs.ErrInterrupted, err)
	case errors.Is(err, syscall.EIO):
		return fmt.Errorf("%w: %s", vfs.ErrIO, err)
	case strings.Contains(err.Error(), "is a directory"):
		return fmt.Errorf("%w: %s", vfs.ErrIsDir, err)
	case strings.Contains(err.Error(), "not a directory"):
		return fmt.Errorf("%w: %s", vfs.ErrNotDir, err)
	default:
		return err
	}
}

// Mkdir creates a directory.
func (f *FS) Mkdir(_ vfs.Ctx, path string, k func(error)) { k(f.mkdir(path)) }

func (f *FS) mkdir(path string) error {
	host, err := f.resolve(path)
	if err != nil {
		return err
	}
	return mapErr(f.attempt("mkdir", path, func() error { return os.Mkdir(host, 0o755) }))
}

// Create creates or truncates a regular file, open for writing.
func (f *FS) Create(_ vfs.Ctx, path string, k func(vfs.FD, error)) { k(f.create(path)) }

func (f *FS) create(path string) (vfs.FD, error) {
	host, err := f.resolve(path)
	if err != nil {
		return 0, err
	}
	var file *os.File
	err = f.attempt("create", path, func() error {
		var e error
		file, e = os.OpenFile(host, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		return e
	})
	if err != nil {
		return 0, mapErr(err)
	}
	return f.track(file), nil
}

// Open opens an existing file.
func (f *FS) Open(_ vfs.Ctx, path string, mode vfs.OpenMode, k func(vfs.FD, error)) {
	k(f.open(path, mode))
}

func (f *FS) open(path string, mode vfs.OpenMode) (vfs.FD, error) {
	host, err := f.resolve(path)
	if err != nil {
		return 0, err
	}
	var flag int
	switch mode {
	case vfs.ReadOnly:
		flag = os.O_RDONLY
	case vfs.WriteOnly:
		flag = os.O_WRONLY
	case vfs.ReadWrite:
		flag = os.O_RDWR
	default:
		return 0, fmt.Errorf("%w: open mode %d", vfs.ErrInvalid, mode)
	}
	var file *os.File
	err = f.attempt("open", path, func() error {
		var e error
		file, e = os.OpenFile(host, flag, 0)
		return e
	})
	if err != nil {
		return 0, mapErr(err)
	}
	return f.track(file), nil
}

func (f *FS) track(file *os.File) vfs.FD {
	f.mu.Lock()
	defer f.mu.Unlock()
	fd := f.nextFD
	f.nextFD++
	f.files[fd] = file
	return fd
}

func (f *FS) file(fd vfs.FD) (*os.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	file, ok := f.files[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", vfs.ErrBadFD, fd)
	}
	return file, nil
}

// Read transfers up to n real bytes from the file.
func (f *FS) Read(_ vfs.Ctx, fd vfs.FD, n int64, k func(int64, error)) { k(f.read(fd, n)) }

func (f *FS) read(fd vfs.FD, n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative read size %d", vfs.ErrInvalid, n)
	}
	file, err := f.file(fd)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	hooks := f.hooks
	name := file.Name()
	var total int64
	retries := 0
	for total < n {
		chunk := n - total
		if chunk > int64(len(f.buf)) {
			chunk = int64(len(f.buf))
		}
		if hooks != nil {
			if hooks.Before != nil {
				if err := hooks.Before("read", name); err != nil {
					// An interrupted attempt is retried, as every libc-era
					// read loop did; anything else is the call's failure,
					// with the bytes already moved reported alongside.
					if errors.Is(err, syscall.EINTR) && retries < eintrMaxRetries {
						retries++
						f.eintrRetries++
						continue
					}
					return total, mapErr(err)
				}
			}
			if hooks.Chunk != nil {
				// A shortened chunk is a short read; the loop absorbs it.
				if c := hooks.Chunk("read", int(chunk)); c > 0 && int64(c) < chunk {
					chunk = int64(c)
				}
			}
		}
		got, err := file.Read(f.buf[:chunk])
		total += int64(got)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			if errors.Is(err, syscall.EINTR) && retries < eintrMaxRetries {
				retries++
				f.eintrRetries++
				continue
			}
			return total, mapErr(err)
		}
		if got == 0 {
			break
		}
	}
	return total, nil
}

// Write transfers n real (zero-valued) bytes to the file.
func (f *FS) Write(_ vfs.Ctx, fd vfs.FD, n int64, k func(int64, error)) { k(f.write(fd, n)) }

func (f *FS) write(fd vfs.FD, n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative write size %d", vfs.ErrInvalid, n)
	}
	file, err := f.file(fd)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	hooks := f.hooks
	name := file.Name()
	zero := f.buf
	for i := range zero {
		zero[i] = 0
	}
	var total int64
	retries := 0
	for total < n {
		chunk := n - total
		if chunk > int64(len(zero)) {
			chunk = int64(len(zero))
		}
		if hooks != nil {
			if hooks.Before != nil {
				if err := hooks.Before("write", name); err != nil {
					if errors.Is(err, syscall.EINTR) && retries < eintrMaxRetries {
						retries++
						f.eintrRetries++
						continue
					}
					// Mid-write failure (ENOSPC and friends): report the
					// prefix that did land together with the mapped error,
					// so callers know how much of the file is real.
					return total, mapErr(err)
				}
			}
			if hooks.Chunk != nil {
				// A shortened chunk is a short write; the loop retries the
				// remainder, which is exactly the cleanup a hostile host
				// demands of callers that assume full writes.
				if c := hooks.Chunk("write", int(chunk)); c > 0 && int64(c) < chunk {
					chunk = int64(c)
				}
			}
		}
		got, err := file.Write(zero[:chunk])
		total += int64(got)
		if err != nil {
			if errors.Is(err, syscall.EINTR) && retries < eintrMaxRetries {
				retries++
				f.eintrRetries++
				continue
			}
			return total, mapErr(err)
		}
	}
	return total, nil
}

// Seek repositions the file offset.
func (f *FS) Seek(_ vfs.Ctx, fd vfs.FD, offset int64, whence int, k func(int64, error)) {
	k(f.seek(fd, offset, whence))
}

func (f *FS) seek(fd vfs.FD, offset int64, whence int) (int64, error) {
	file, err := f.file(fd)
	if err != nil {
		return 0, err
	}
	var pos int64
	err = f.attempt("seek", file.Name(), func() error {
		var e error
		pos, e = file.Seek(offset, whence)
		return e
	})
	return pos, mapErr(err)
}

// Close closes the file.
func (f *FS) Close(_ vfs.Ctx, fd vfs.FD, k func(error)) { k(f.closeFD(fd)) }

func (f *FS) closeFD(fd vfs.FD) error {
	f.mu.Lock()
	file, ok := f.files[fd]
	if ok {
		delete(f.files, fd)
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", vfs.ErrBadFD, fd)
	}
	return mapErr(f.attempt("close", file.Name(), file.Close))
}

// Unlink removes a file.
func (f *FS) Unlink(_ vfs.Ctx, path string, k func(error)) { k(f.unlink(path)) }

func (f *FS) unlink(path string) error {
	host, err := f.resolve(path)
	if err != nil {
		return err
	}
	info, err := os.Stat(host)
	if err != nil {
		return mapErr(err)
	}
	if info.IsDir() {
		return fmt.Errorf("%w: %q", vfs.ErrIsDir, path)
	}
	return mapErr(f.attempt("unlink", path, func() error { return os.Remove(host) }))
}

// Stat returns file metadata.
func (f *FS) Stat(_ vfs.Ctx, path string, k func(vfs.FileInfo, error)) { k(f.stat(path)) }

func (f *FS) stat(path string) (vfs.FileInfo, error) {
	host, err := f.resolve(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	var info os.FileInfo
	err = f.attempt("stat", path, func() error {
		var e error
		info, e = os.Stat(host)
		return e
	})
	if err != nil {
		return vfs.FileInfo{}, mapErr(err)
	}
	return vfs.FileInfo{Path: path, Size: info.Size(), IsDir: info.IsDir()}, nil
}

// ReadDir lists a directory in lexical order.
func (f *FS) ReadDir(_ vfs.Ctx, path string, k func([]string, error)) { k(f.readDir(path)) }

func (f *FS) readDir(path string) ([]string, error) {
	host, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	var entries []os.DirEntry
	err = f.attempt("readdir", path, func() error {
		var e error
		entries, e = os.ReadDir(host)
		return e
	})
	if err != nil {
		return nil, mapErr(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

// OpenFDs returns the number of descriptors currently open.
func (f *FS) OpenFDs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.files)
}
