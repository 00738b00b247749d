package vfs

// Sync adapts the continuation-passing FileSystem interface back to plain
// call-and-return signatures. It is valid only with a Ctx whose Hold runs
// its continuation inline — ManualClock, ZeroClock, wall clocks — because
// it requires every operation's continuation to have fired by the time the
// underlying method returns. Under the DES kernel (ctx is a *sim.Proc)
// operations suspend, the continuation fires from a later calendar event,
// and Sync panics rather than return a garbage value.
//
// Setup code (the FSC, cache warming, the User Simulator's file size
// lookup), the host-filesystem path, and tests use Sync; simulated process
// bodies must stay in continuation style.
//
// A Sync with FS set is ready to use, and FS may be pointed at another file
// system between calls. Each kind of result continuation (error, FD, count,
// FileInfo, names) is bound on the Sync's first call of that kind and
// reused after, so a call allocates nothing; a Sync that only ever stats
// binds one closure. The bound continuations capture the Sync's address: a
// Sync must not be copied after first use.
type Sync struct {
	FS FileSystem

	calls int64
	done  bool // the in-flight call's continuation has run

	// The in-flight call's results.
	err   error
	fd    FD
	n     int64
	info  FileInfo
	names []string

	errK   func(error)
	fdK    func(FD, error)
	nK     func(int64, error)
	infoK  func(FileInfo, error)
	namesK func([]string, error)
}

// Calls reports how many operations the Sync has issued.
func (s *Sync) Calls() int64 { return s.calls }

// start counts one call and arms finish's check.
func (s *Sync) start() {
	s.calls++
	s.done = false
}

// finish panics when the call's continuation has not run inline — the
// caller handed Sync a suspending Ctx.
func (s *Sync) finish() {
	if !s.done {
		panic("vfs: Sync used with a suspending Ctx; continuation did not complete inline")
	}
}

// The bind methods return one result kind's continuation, binding it on the
// Sync's first call of that kind.

func (s *Sync) bindErr() func(error) {
	if s.errK == nil {
		s.errK = func(e error) { s.err, s.done = e, true }
	}
	return s.errK
}

func (s *Sync) bindFD() func(FD, error) {
	if s.fdK == nil {
		s.fdK = func(f FD, e error) { s.fd, s.err, s.done = f, e, true }
	}
	return s.fdK
}

func (s *Sync) bindN() func(int64, error) {
	if s.nK == nil {
		s.nK = func(n int64, e error) { s.n, s.err, s.done = n, e, true }
	}
	return s.nK
}

func (s *Sync) bindInfo() func(FileInfo, error) {
	if s.infoK == nil {
		s.infoK = func(fi FileInfo, e error) { s.info, s.err, s.done = fi, e, true }
	}
	return s.infoK
}

func (s *Sync) bindNames() func([]string, error) {
	if s.namesK == nil {
		s.namesK = func(ns []string, e error) { s.names, s.err, s.done = ns, e, true }
	}
	return s.namesK
}

// Mkdir creates a directory.
func (s *Sync) Mkdir(ctx Ctx, path string) error {
	s.start()
	s.FS.Mkdir(ctx, path, s.bindErr())
	s.finish()
	return s.err
}

// Create creates (or truncates) a regular file open for writing.
func (s *Sync) Create(ctx Ctx, path string) (FD, error) {
	s.start()
	s.FS.Create(ctx, path, s.bindFD())
	s.finish()
	return s.fd, s.err
}

// Open opens an existing file.
func (s *Sync) Open(ctx Ctx, path string, mode OpenMode) (FD, error) {
	s.start()
	s.FS.Open(ctx, path, mode, s.bindFD())
	s.finish()
	return s.fd, s.err
}

// Read transfers up to n bytes.
func (s *Sync) Read(ctx Ctx, fd FD, n int64) (int64, error) {
	s.start()
	s.FS.Read(ctx, fd, n, s.bindN())
	s.finish()
	return s.n, s.err
}

// Write transfers n bytes.
func (s *Sync) Write(ctx Ctx, fd FD, n int64) (int64, error) {
	s.start()
	s.FS.Write(ctx, fd, n, s.bindN())
	s.finish()
	return s.n, s.err
}

// Seek repositions the descriptor's offset.
func (s *Sync) Seek(ctx Ctx, fd FD, offset int64, whence int) (int64, error) {
	s.start()
	s.FS.Seek(ctx, fd, offset, whence, s.bindN())
	s.finish()
	return s.n, s.err
}

// Close releases the descriptor.
func (s *Sync) Close(ctx Ctx, fd FD) error {
	s.start()
	s.FS.Close(ctx, fd, s.bindErr())
	s.finish()
	return s.err
}

// Unlink removes a file name.
func (s *Sync) Unlink(ctx Ctx, path string) error {
	s.start()
	s.FS.Unlink(ctx, path, s.bindErr())
	s.finish()
	return s.err
}

// Stat returns metadata for a path.
func (s *Sync) Stat(ctx Ctx, path string) (FileInfo, error) {
	s.start()
	s.FS.Stat(ctx, path, s.bindInfo())
	s.finish()
	return s.info, s.err
}

// ReadDir lists a directory.
func (s *Sync) ReadDir(ctx Ctx, path string) ([]string, error) {
	s.start()
	s.FS.ReadDir(ctx, path, s.bindNames())
	s.finish()
	return s.names, s.err
}
