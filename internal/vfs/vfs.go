// Package vfs defines the system-call-level file system interface the
// workload generator drives (thesis §3.1.2 chooses the kernel level: open,
// read, write, close, ...), and provides MemFS, an in-memory inode-based
// implementation with a pluggable cost model.
//
// The same interface is implemented by the simulated local file system
// (MemFS + LocalCost), the simulated SUN NFS client (package nfs), and the
// host file system adapter (package realfs), so the User Simulator can drive
// any of them unchanged — the portability property the thesis argues for.
// This interface is the seam between the pipeline's workload stage (the
// User Simulator above it) and its DES stage (the simulated systems below).
package vfs

import (
	"errors"
	"io"
	"strings"
)

// Ctx carries the notion of time through a file system call: virtual time
// under the DES scheduler (*sim.Proc satisfies Ctx) or wall-clock time for
// the host adapter. Implementations of FileSystem advance it to charge for
// the work an operation performs.
//
// Hold is continuation-passing: it arranges for k to run after d
// microseconds. Under the DES kernel that means scheduling k on the event
// calendar and returning immediately (the caller's stack unwinds to the
// event loop, so other simulated processes interleave); synchronous clocks
// advance their counter and call k before returning. Callers must therefore
// put all work that follows a Hold inside k, never after the call.
type Ctx interface {
	// Now returns the current time in microseconds.
	Now() float64
	// Hold advances time by d microseconds, then runs k.
	Hold(d float64, k func())
}

// ManualClock is a trivial Ctx that just accumulates held time, running
// continuations inline. It is useful in tests and for running MemFS outside
// the DES.
type ManualClock struct {
	T float64
}

var _ Ctx = (*ManualClock)(nil)

// Now returns the accumulated time.
func (c *ManualClock) Now() float64 { return c.T }

// Hold advances the accumulated time (negative holds are ignored) and runs k.
func (c *ManualClock) Hold(d float64, k func()) {
	if d > 0 {
		c.T += d
	}
	k()
}

// ZeroClock is a Ctx pinned to t=0 whose Hold runs its continuation at
// once, charging nothing: the clock for work outside the measured run that
// must leave no trace of time. Cache warming needs it rather than a
// ManualClock: the NFS client's attribute cache stores absolute expiry
// times (Now + timeout), and a clock that advanced during warming would
// hand differently-warmed users different expiries in the measured run's
// timebase.
type ZeroClock struct{}

var _ Ctx = ZeroClock{}

// Now returns 0.
func (ZeroClock) Now() float64 { return 0 }

// Hold runs k.
func (ZeroClock) Hold(_ float64, k func()) { k() }

// FD is a file descriptor.
type FD int

// OpenMode is the access mode of an open file.
type OpenMode int

// Open modes. They begin at one so the zero value is invalid.
const (
	ReadOnly OpenMode = iota + 1
	WriteOnly
	ReadWrite
)

func (m OpenMode) String() string {
	switch m {
	case ReadOnly:
		return "ro"
	case WriteOnly:
		return "wo"
	case ReadWrite:
		return "rw"
	default:
		return "invalid"
	}
}

// CanRead reports whether the mode permits reading.
func (m OpenMode) CanRead() bool { return m == ReadOnly || m == ReadWrite }

// CanWrite reports whether the mode permits writing.
func (m OpenMode) CanWrite() bool { return m == WriteOnly || m == ReadWrite }

// Seek whence values (aliases of package io's).
const (
	SeekStart   = io.SeekStart
	SeekCurrent = io.SeekCurrent
	SeekEnd     = io.SeekEnd
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string
	Ino   uint64
	Size  int64
	IsDir bool
}

// Errno-style errors shared by all FileSystem implementations.
var (
	ErrNotExist  = errors.New("vfs: no such file or directory")
	ErrExist     = errors.New("vfs: file exists")
	ErrIsDir     = errors.New("vfs: is a directory")
	ErrNotDir    = errors.New("vfs: not a directory")
	ErrBadFD     = errors.New("vfs: bad file descriptor")
	ErrBadMode   = errors.New("vfs: operation not permitted by open mode")
	ErrInvalid   = errors.New("vfs: invalid argument")
	ErrTooManyFD = errors.New("vfs: too many open files")
	// Fault-injection and hostile-host errnos (ENOSPC, EINTR, EIO): produced
	// by the fault engine's simulated-layer rules and by the realfs adapter
	// mapping real host errors.
	ErrNoSpace     = errors.New("vfs: no space left on device")
	ErrInterrupted = errors.New("vfs: interrupted system call")
	ErrIO          = errors.New("vfs: input/output error")
)

// FileSystem is the system-call-level interface the workload generator
// drives. Byte counts stand in for buffers: the generator cares about sizes
// and timing, not content.
//
// The interface is continuation-passing, mirroring Ctx.Hold: each operation
// delivers its result by calling k exactly once, possibly after suspending
// at holds or resource queues inside the implementation. With a synchronous
// Ctx every k runs before the method returns (the Sync adapter packages
// that case back into plain call-and-return signatures); under the DES the
// call may return first and k fire from a later calendar event.
type FileSystem interface {
	// Mkdir creates a directory. Parents must exist.
	Mkdir(ctx Ctx, path string, k func(error))
	// Create creates a regular file open for writing, truncating an
	// existing file.
	Create(ctx Ctx, path string, k func(FD, error))
	// Open opens an existing file with the given mode.
	Open(ctx Ctx, path string, mode OpenMode, k func(FD, error))
	// Read transfers up to n bytes from the descriptor's offset, delivering
	// the number transferred (0 at end of file).
	Read(ctx Ctx, fd FD, n int64, k func(int64, error))
	// Write transfers n bytes at the descriptor's offset, extending the
	// file as needed, and delivers the number transferred.
	Write(ctx Ctx, fd FD, n int64, k func(int64, error))
	// Seek repositions the descriptor's offset and delivers the new offset.
	Seek(ctx Ctx, fd FD, offset int64, whence int, k func(int64, error))
	// Close releases the descriptor.
	Close(ctx Ctx, fd FD, k func(error))
	// Unlink removes a file name. An open file's data survives until the
	// last descriptor closes, per UNIX semantics.
	Unlink(ctx Ctx, path string, k func(error))
	// Stat delivers metadata for a path.
	Stat(ctx Ctx, path string, k func(FileInfo, error))
	// ReadDir delivers the names in a directory in lexical order.
	ReadDir(ctx Ctx, path string, k func([]string, error))
}

// Crasher is implemented by file systems that can model losing their
// per-machine volatile state: Crash drops every open descriptor, cached
// page, and pending write-behind instantly and without cost — the machine
// lost power, nothing ran. The shared backing store (the server's view of
// the files) survives; only this client's warmth and unflushed data are
// gone. The lifecycle engine (package usim) calls it when a simulated
// workstation crashes, so the rebooted user rejoins with a cold cache.
type Crasher interface {
	Crash()
}

// SplitPath cleans an absolute slash-separated path into its segments.
// It returns ErrInvalid for relative or empty paths.
func SplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrInvalid
	}
	raw := strings.Split(path, "/")
	segs := make([]string, 0, len(raw))
	for _, s := range raw {
		switch s {
		case "", ".":
			continue
		case "..":
			if len(segs) == 0 {
				return nil, ErrInvalid
			}
			segs = segs[:len(segs)-1]
		default:
			segs = append(segs, s)
		}
	}
	return segs, nil
}
