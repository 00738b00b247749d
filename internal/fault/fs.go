package fault

import (
	"fmt"

	"uswg/internal/vfs"
)

// FS wraps a vfs.FileSystem and applies a fault engine to every call: fired
// error rules abort the operation (after charging the rule's latency — a
// failed call that burned a round trip), fired latency rules delay it, and
// fired partial rules shorten the data transfer (a short write, delivered
// without error per UNIX semantics). The passthrough path costs one engine
// evaluation and nothing else.
//
// Wrap only the measured file system: setup (FSC) and cache warming should
// run against the clean inner FS so faults perturb the experiment, not its
// construction.
type FS struct {
	inner vfs.FileSystem
	eng   *Engine
}

var _ vfs.FileSystem = (*FS)(nil)

// NewFS wraps inner with the engine's fault plan.
func NewFS(inner vfs.FileSystem, eng *Engine) *FS {
	return &FS{inner: inner, eng: eng}
}

// Crash forwards a workstation crash to the wrapped file system when it
// models one (vfs.Crasher), so the lifecycle engine can cold-boot a client
// through the fault wrapper. A crash is not a call: no rule evaluates.
func (f *FS) Crash() {
	if cr, ok := f.inner.(vfs.Crasher); ok {
		cr.Crash()
	}
}

var _ vfs.Crasher = (*FS)(nil)

// fail charges the outcome's latency, then delivers its error.
func fail(ctx vfs.Ctx, out Outcome, target string, k func(error)) {
	err := fmt.Errorf("%w: %s", out.Err, target)
	if out.Latency > 0 {
		ctx.Hold(out.Latency, func() { k(err) })
		return
	}
	k(err)
}

// Mkdir injects or forwards.
func (f *FS) Mkdir(ctx vfs.Ctx, path string, k func(error)) {
	if out, fired := f.eng.Eval("mkdir", ctx.Now()); fired {
		if out.Err != nil {
			fail(ctx, out, path, k)
			return
		}
		ctx.Hold(out.Latency, func() { f.inner.Mkdir(ctx, path, k) })
		return
	}
	f.inner.Mkdir(ctx, path, k)
}

// Create injects or forwards.
func (f *FS) Create(ctx vfs.Ctx, path string, k func(vfs.FD, error)) {
	if out, fired := f.eng.Eval("create", ctx.Now()); fired {
		if out.Err != nil {
			fail(ctx, out, path, func(err error) { k(0, err) })
			return
		}
		ctx.Hold(out.Latency, func() { f.inner.Create(ctx, path, k) })
		return
	}
	f.inner.Create(ctx, path, k)
}

// Open injects or forwards.
func (f *FS) Open(ctx vfs.Ctx, path string, mode vfs.OpenMode, k func(vfs.FD, error)) {
	if out, fired := f.eng.Eval("open", ctx.Now()); fired {
		if out.Err != nil {
			fail(ctx, out, path, func(err error) { k(0, err) })
			return
		}
		ctx.Hold(out.Latency, func() { f.inner.Open(ctx, path, mode, k) })
		return
	}
	f.inner.Open(ctx, path, mode, k)
}

// short applies a partial outcome to a transfer size: at least one byte, at
// most n-1, so a short transfer makes progress yet stays short.
func short(n int64, fraction float64) int64 {
	cut := int64(float64(n) * fraction)
	if cut < 1 {
		cut = 1
	}
	if cut >= n {
		cut = n - 1
	}
	if cut < 1 {
		cut = 1 // n == 1: nothing to shorten
	}
	return cut
}

// Read injects, shortens, or forwards.
func (f *FS) Read(ctx vfs.Ctx, fd vfs.FD, n int64, k func(int64, error)) {
	if out, fired := f.eng.Eval("read", ctx.Now()); fired {
		switch {
		case out.Err != nil:
			fail(ctx, out, fmt.Sprintf("fd %d", fd), func(err error) { k(0, err) })
			return
		case out.Partial > 0 && n > 1:
			n = short(n, out.Partial)
		}
		if out.Latency > 0 {
			nn := n
			ctx.Hold(out.Latency, func() { f.inner.Read(ctx, fd, nn, k) })
			return
		}
	}
	f.inner.Read(ctx, fd, n, k)
}

// Write injects, shortens, or forwards.
func (f *FS) Write(ctx vfs.Ctx, fd vfs.FD, n int64, k func(int64, error)) {
	if out, fired := f.eng.Eval("write", ctx.Now()); fired {
		switch {
		case out.Err != nil:
			fail(ctx, out, fmt.Sprintf("fd %d", fd), func(err error) { k(0, err) })
			return
		case out.Partial > 0 && n > 1:
			n = short(n, out.Partial)
		}
		if out.Latency > 0 {
			nn := n
			ctx.Hold(out.Latency, func() { f.inner.Write(ctx, fd, nn, k) })
			return
		}
	}
	f.inner.Write(ctx, fd, n, k)
}

// Seek injects or forwards.
func (f *FS) Seek(ctx vfs.Ctx, fd vfs.FD, offset int64, whence int, k func(int64, error)) {
	if out, fired := f.eng.Eval("seek", ctx.Now()); fired {
		if out.Err != nil {
			fail(ctx, out, fmt.Sprintf("fd %d", fd), func(err error) { k(0, err) })
			return
		}
		ctx.Hold(out.Latency, func() { f.inner.Seek(ctx, fd, offset, whence, k) })
		return
	}
	f.inner.Seek(ctx, fd, offset, whence, k)
}

// Close never injects errors: leaking descriptors on a failed close would
// conflate fault handling with resource exhaustion. Only pure latency rules
// are even evaluated (a slow close-to-open consistency flush), so error
// rules matching close keep their streams and fire budgets intact.
func (f *FS) Close(ctx vfs.Ctx, fd vfs.FD, k func(error)) {
	if out, fired := f.eng.EvalLatencyOnly("close", ctx.Now()); fired && out.Latency > 0 {
		ctx.Hold(out.Latency, func() { f.inner.Close(ctx, fd, k) })
		return
	}
	f.inner.Close(ctx, fd, k)
}

// Unlink injects or forwards.
func (f *FS) Unlink(ctx vfs.Ctx, path string, k func(error)) {
	if out, fired := f.eng.Eval("unlink", ctx.Now()); fired {
		if out.Err != nil {
			fail(ctx, out, path, k)
			return
		}
		ctx.Hold(out.Latency, func() { f.inner.Unlink(ctx, path, k) })
		return
	}
	f.inner.Unlink(ctx, path, k)
}

// Stat injects or forwards.
func (f *FS) Stat(ctx vfs.Ctx, path string, k func(vfs.FileInfo, error)) {
	if out, fired := f.eng.Eval("stat", ctx.Now()); fired {
		if out.Err != nil {
			fail(ctx, out, path, func(err error) { k(vfs.FileInfo{}, err) })
			return
		}
		ctx.Hold(out.Latency, func() { f.inner.Stat(ctx, path, k) })
		return
	}
	f.inner.Stat(ctx, path, k)
}

// ReadDir injects or forwards.
func (f *FS) ReadDir(ctx vfs.Ctx, path string, k func([]string, error)) {
	if out, fired := f.eng.Eval("readdir", ctx.Now()); fired {
		if out.Err != nil {
			fail(ctx, out, path, func(err error) { k(nil, err) })
			return
		}
		ctx.Hold(out.Latency, func() { f.inner.ReadDir(ctx, path, k) })
		return
	}
	f.inner.ReadDir(ctx, path, k)
}
