// Package baseline implements the two comparison workload generators the
// thesis's related-work section (§2.1) measures the synthetic generator
// against:
//
//   - an Andrew-style benchmark script (Howard et al. 1988): fixed phases of
//     makedir, copy, scandir, readall, and make — the same for every run,
//     which is exactly the inflexibility the thesis criticizes;
//   - a trace replayer that re-executes a previously recorded usage log with
//     its original inter-operation gaps — exact, but frozen to one
//     configuration.
//
// Both drive the same vfs.FileSystem interface and emit the same trace.Log
// as the User Simulator, so the three approaches are directly comparable:
// each is an alternative workload stage slotted into the same
// DES→workload→trace→analysis pipeline.
package baseline

import (
	"fmt"
	"sort"

	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// ScriptConfig sizes the Andrew-style benchmark script.
type ScriptConfig struct {
	// Dirs is the number of directories MakeDir creates.
	Dirs int
	// FilesPerDir is the number of files Copy creates in each directory.
	FilesPerDir int
	// FileSize is each copied file's size in bytes.
	FileSize int64
	// Chunk is the transfer size per read/write call.
	Chunk int64
}

// Validate reports whether the configuration is usable.
func (c ScriptConfig) Validate() error {
	if c.Dirs < 1 || c.FilesPerDir < 1 || c.FileSize < 1 || c.Chunk < 1 {
		return fmt.Errorf("baseline: non-positive script parameter in %+v", c)
	}
	return nil
}

// Script runs the five benchmark phases under root, logging each system
// call to log with the given session id. Every invocation performs exactly
// the same operations — the benchmark has no notion of user populations or
// distributions. It drives the file system synchronously and therefore
// requires a Ctx whose holds complete inline (manual or wall clocks, not a
// DES process).
func Script(ctx vfs.Ctx, fsys vfs.FileSystem, root string, cfg ScriptConfig, log *trace.Log, session int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s := &scriptRun{ctx: ctx, fs: vfs.Sync{FS: fsys}, cfg: cfg, log: log, session: session}
	start := ctx.Now()
	err := s.fs.Mkdir(ctx, root)
	if err != nil && vfs.IsExist(err) {
		err = nil
	}
	s.record(trace.OpMkdir, root, 0, 0, start, err)
	if err != nil {
		return fmt.Errorf("baseline: mkdir %s: %w", root, err)
	}
	for _, phase := range []func(string) error{s.makeDir, s.copy, s.scanDir, s.readAll, s.make} {
		if err := phase(root); err != nil {
			return err
		}
	}
	return nil
}

type scriptRun struct {
	ctx     vfs.Ctx
	fs      vfs.Sync
	cfg     ScriptConfig
	log     *trace.Log
	session int
}

func (s *scriptRun) dir(root string, i int) string { return fmt.Sprintf("%s/d%d", root, i) }
func (s *scriptRun) file(dir string, j int) string { return fmt.Sprintf("%s/f%d", dir, j) }
func (s *scriptRun) out(root string, i int) string { return fmt.Sprintf("%s/obj%d", root, i) }
func (s *scriptRun) record(op trace.Op, path string, bytes, size int64, start float64, err error) {
	rec := trace.Record{
		Session: s.session, UserType: "andrew-script",
		Op: op, Path: path, Category: -1,
		Bytes: bytes, FileSize: size,
		Start: start, Elapsed: s.ctx.Now() - start,
	}
	if err != nil {
		rec.Err = err.Error()
		rec.Bytes = 0
	}
	s.log.Add(rec)
}

// makeDir is phase 1: create the directory tree.
func (s *scriptRun) makeDir(root string) error {
	for i := 0; i < s.cfg.Dirs; i++ {
		start := s.ctx.Now()
		err := s.fs.Mkdir(s.ctx, s.dir(root, i))
		s.record(trace.OpMkdir, s.dir(root, i), 0, 0, start, err)
		if err != nil && !vfs.IsExist(err) {
			return fmt.Errorf("baseline: makedir: %w", err)
		}
	}
	return nil
}

// copy is phase 2: create every file and write its contents.
func (s *scriptRun) copy(root string) error {
	for i := 0; i < s.cfg.Dirs; i++ {
		for j := 0; j < s.cfg.FilesPerDir; j++ {
			path := s.file(s.dir(root, i), j)
			start := s.ctx.Now()
			fd, err := s.fs.Create(s.ctx, path)
			s.record(trace.OpCreate, path, 0, 0, start, err)
			if err != nil {
				return fmt.Errorf("baseline: copy create: %w", err)
			}
			var written int64
			for written < s.cfg.FileSize {
				n := s.cfg.Chunk
				if written+n > s.cfg.FileSize {
					n = s.cfg.FileSize - written
				}
				start = s.ctx.Now()
				got, err := s.fs.Write(s.ctx, fd, n)
				written += got
				s.record(trace.OpWrite, path, got, written, start, err)
				if err != nil {
					return fmt.Errorf("baseline: copy write: %w", err)
				}
			}
			start = s.ctx.Now()
			err = s.fs.Close(s.ctx, fd)
			s.record(trace.OpClose, path, 0, written, start, err)
			if err != nil {
				return fmt.Errorf("baseline: copy close: %w", err)
			}
		}
	}
	return nil
}

// scanDir is phase 3: stat every file via directory listings.
func (s *scriptRun) scanDir(root string) error {
	for i := 0; i < s.cfg.Dirs; i++ {
		dir := s.dir(root, i)
		start := s.ctx.Now()
		names, err := s.fs.ReadDir(s.ctx, dir)
		s.record(trace.OpReadDir, dir, 0, 0, start, err)
		if err != nil {
			return fmt.Errorf("baseline: scandir: %w", err)
		}
		sort.Strings(names)
		for _, name := range names {
			path := dir + "/" + name
			start = s.ctx.Now()
			info, err := s.fs.Stat(s.ctx, path)
			s.record(trace.OpStat, path, 0, info.Size, start, err)
			if err != nil {
				return fmt.Errorf("baseline: scandir stat: %w", err)
			}
		}
	}
	return nil
}

// readAll is phase 4: read every byte of every file.
func (s *scriptRun) readAll(root string) error {
	for i := 0; i < s.cfg.Dirs; i++ {
		for j := 0; j < s.cfg.FilesPerDir; j++ {
			path := s.file(s.dir(root, i), j)
			if err := s.readFile(path); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *scriptRun) readFile(path string) error {
	start := s.ctx.Now()
	fd, err := s.fs.Open(s.ctx, path, vfs.ReadOnly)
	s.record(trace.OpOpen, path, 0, 0, start, err)
	if err != nil {
		return fmt.Errorf("baseline: open %s: %w", path, err)
	}
	var total int64
	for {
		start = s.ctx.Now()
		got, err := s.fs.Read(s.ctx, fd, s.cfg.Chunk)
		if got > 0 || err != nil {
			total += got
			s.record(trace.OpRead, path, got, total, start, err)
		}
		if err != nil {
			_ = s.fs.Close(s.ctx, fd)
			return fmt.Errorf("baseline: read %s: %w", path, err)
		}
		if got == 0 {
			break
		}
	}
	start = s.ctx.Now()
	err = s.fs.Close(s.ctx, fd)
	s.record(trace.OpClose, path, 0, total, start, err)
	if err != nil {
		return fmt.Errorf("baseline: close %s: %w", path, err)
	}
	return nil
}

// make is phase 5: read each directory's sources and write one output
// object per directory (a compile stand-in).
func (s *scriptRun) make(root string) error {
	for i := 0; i < s.cfg.Dirs; i++ {
		if err := s.readFile(s.file(s.dir(root, i), 0)); err != nil {
			return err
		}
		path := s.out(root, i)
		start := s.ctx.Now()
		fd, err := s.fs.Create(s.ctx, path)
		s.record(trace.OpCreate, path, 0, 0, start, err)
		if err != nil {
			return fmt.Errorf("baseline: make create: %w", err)
		}
		start = s.ctx.Now()
		got, err := s.fs.Write(s.ctx, fd, s.cfg.FileSize/2)
		s.record(trace.OpWrite, path, got, got, start, err)
		if err != nil {
			return fmt.Errorf("baseline: make write: %w", err)
		}
		start = s.ctx.Now()
		err = s.fs.Close(s.ctx, fd)
		s.record(trace.OpClose, path, 0, got, start, err)
		if err != nil {
			return fmt.Errorf("baseline: make close: %w", err)
		}
	}
	return nil
}

// Replay re-executes a recorded operation stream against fs, reproducing
// the original inter-operation gaps as holds — the trace-data approach of
// §2.1. Operations that failed in the original log are skipped, as are ops
// whose file state cannot be reconstructed (e.g. a read before any open in
// the slice). The replayed operations are appended to out (which may be
// nil).
//
// The records must be sorted by Start time; Replay processes them in order.
// A descriptor belongs to the session that opened it, so sessions that
// interleave on one file each replay through their own. Like Script,
// Replay drives the file system synchronously and requires a
// non-suspending Ctx.
func Replay(ctx vfs.Ctx, fsys vfs.FileSystem, records []trace.Record, out *trace.Log) (replayed int, err error) {
	fs := vfs.Sync{FS: fsys}
	if out == nil {
		out = &trace.Log{}
	}
	type fdKey struct {
		session int
		path    string
	}
	fds := make(map[fdKey]vfs.FD)
	sizes := make(map[string]int64)
	var prevStart float64
	first := true
	for _, r := range records {
		if r.Err != "" {
			continue
		}
		if !first && r.Start > prevStart {
			ctx.Hold(r.Start-prevStart, func() {})
		}
		prevStart = r.Start
		first = false

		start := ctx.Now()
		key := fdKey{r.Session, r.Path}
		var opErr error
		var bytes int64
		switch r.Op {
		case trace.OpMkdir:
			opErr = fs.Mkdir(ctx, r.Path)
			if opErr != nil && vfs.IsExist(opErr) {
				opErr = nil
			}
		case trace.OpCreate:
			var fd vfs.FD
			fd, opErr = fs.Create(ctx, r.Path)
			if opErr == nil {
				fds[key] = fd
				sizes[r.Path] = 0
			}
		case trace.OpOpen:
			// The record does not carry the original open mode; use
			// read-write so both subsequent reads and writes replay.
			var fd vfs.FD
			fd, opErr = fs.Open(ctx, r.Path, vfs.ReadWrite)
			if opErr == nil {
				fds[key] = fd
			}
		case trace.OpRead:
			fd, ok := fds[key]
			if !ok {
				continue
			}
			bytes, opErr = fs.Read(ctx, fd, r.Bytes)
		case trace.OpWrite:
			fd, ok := fds[key]
			if !ok {
				continue
			}
			bytes, opErr = fs.Write(ctx, fd, r.Bytes)
			if opErr == nil {
				sizes[r.Path] += bytes
			}
		case trace.OpSeek:
			fd, ok := fds[key]
			if !ok {
				continue
			}
			_, opErr = fs.Seek(ctx, fd, 0, vfs.SeekStart)
		case trace.OpClose:
			fd, ok := fds[key]
			if !ok {
				continue
			}
			opErr = fs.Close(ctx, fd)
			delete(fds, key)
		case trace.OpUnlink:
			opErr = fs.Unlink(ctx, r.Path)
		case trace.OpStat:
			_, opErr = fs.Stat(ctx, r.Path)
		case trace.OpReadDir:
			_, opErr = fs.ReadDir(ctx, r.Path)
		default:
			continue
		}
		rec := trace.Record{
			Session: r.Session, User: r.User, UserType: "replay",
			Op: r.Op, Path: r.Path, Category: r.Category,
			Bytes: bytes, FileSize: sizes[r.Path],
			Start: start, Elapsed: ctx.Now() - start,
		}
		if opErr != nil {
			rec.Err = opErr.Error()
			rec.Bytes = 0
		}
		out.Add(rec)
		replayed++
	}
	// Close any descriptors the trace left open.
	for _, fd := range fds {
		_ = fs.Close(ctx, fd)
	}
	return replayed, nil
}
