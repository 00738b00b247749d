// Package usim implements the User Simulator: it simulates users logging in
// and accessing files by repeatedly randomly selecting a file access
// operation, the file to perform it on, the amount of the file to access,
// and the time delay to the next operation (thesis §4.1.3). The operation
// stream is independent subject to logical constraints — an open always
// precedes a read or write, a close follows the last access — exactly the
// model of §3.1.4. Access is sequential (§4.2), with rewinds when a file is
// re-read.
//
// Per-category behaviour follows the type-of-use label:
//
//   - RDONLY files are opened read-only and read; DIR categories are
//     stat'ed and listed instead.
//   - NEW files are created during the session and written.
//   - RD-WRT files are opened read-write with a mixed read/write stream.
//   - TEMP files are created, written, read back, and unlinked.
//
// Every executed operation is emitted to a trace.Sink — the full-record
// log, the streaming Summarizer, or anything else implementing the
// interface. Per-session state lives in a session arena recycled across
// the sessions of one user stream (see arena), so steady-state session
// execution allocates almost nothing.
//
// In the DES→workload→trace→analysis pipeline the User Simulator is the
// heart of the workload stage: it turns sampled distributions into the
// operation stream that the DES substrate times and the trace layer records.
package usim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"uswg/internal/config"
	"uswg/internal/dist"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// Simulator drives one experiment's sessions against a file system.
type Simulator struct {
	spec   *config.Spec
	tables *gds.TableSet
	inv    *fsc.Inventory
	fs     vfs.FileSystem
	fsFor  func(user int) vfs.FileSystem
	sink   trace.Sink

	thinkByType map[string]*dist.CDFTable

	// life holds per-user lifecycle state (arrival, departure, crash
	// deadlines) — nil for the thesis's static always-on population. See
	// lifecycle.go. With LazyUsers, entries for users that never arrive
	// (zero-session streams) stay nil.
	life []*lifeState

	// hooks fire on a lazy spec's user materialization and release (see
	// UserHooks); zero-valued otherwise.
	hooks UserHooks
	// hookErr records the first materialization failure; the run drains and
	// the runner surfaces it.
	hookErr error
	// arenas is the free list session streams recycle arenas through: an
	// ended stream's arena (with all its bound continuations and item
	// capacity) serves the next user to arrive, so arena count tracks peak
	// concurrently-active streams, not population size. RunUnderSim drops
	// the list when the calendar drains.
	arenas []*arena
}

// UserHooks lets the wiring layer (core.Generator) observe a lazy
// population's user lifecycle: Materialize runs before a user's first
// session — on the DES, at the user's arrival — and is where the generator
// builds the user's file tree, client binding, and cache warmth; Release
// runs when the user's stream ends and is where per-user bindings are
// dropped. Both are nil-safe and only consulted when the spec sets
// LazyUsers.
type UserHooks struct {
	Materialize func(user int) error
	Release     func(user int)
}

// SetUserHooks installs the lazy materialization hooks. Effective only for
// specs with LazyUsers.
func (s *Simulator) SetUserHooks(h UserHooks) { s.hooks = h }

// getArena pops a recycled arena or builds a fresh one. The DES kernel is
// single-threaded, so the free list needs no lock.
func (s *Simulator) getArena() *arena {
	if n := len(s.arenas); n > 0 {
		ar := s.arenas[n-1]
		s.arenas = s.arenas[:n-1]
		return ar
	}
	return newArena()
}

// putArena returns a stream's arena to the free list.
func (s *Simulator) putArena(ar *arena) { s.arenas = append(s.arenas, ar) }

// New validates the pieces and returns a simulator. The sink receives every
// executed operation; with a nil sink operations are executed but not
// recorded (trace.Discard).
func New(spec *config.Spec, tables *gds.TableSet, inv *fsc.Inventory, fs vfs.FileSystem, sink trace.Sink) (*Simulator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tables == nil || inv == nil || fs == nil {
		return nil, errors.New("usim: nil tables, inventory, or file system")
	}
	think := make(map[string]*dist.CDFTable, len(spec.UserTypes))
	for _, u := range spec.UserTypes {
		t, ok := tables.ThinkTime[u.Name]
		if !ok {
			return nil, fmt.Errorf("usim: no think-time table for user type %q", u.Name)
		}
		think[u.Name] = t
	}
	if sink == nil {
		sink = trace.Discard{}
	}
	s := &Simulator{spec: spec, tables: tables, inv: inv, fs: fs, sink: sink, thinkByType: think}
	if spec.HasLifecycle() {
		if err := s.initLifecycle(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Log returns the usage log when the sink is a full-record *trace.Log (the
// default), or nil for streaming sinks.
func (s *Simulator) Log() *trace.Log {
	l, _ := s.sink.(*trace.Log)
	return l
}

// SetFSForUser overrides the file system each user's sessions run against
// (the per-workstation NFS clients of the thesis's testbed, all mounting
// one server). When unset, every user shares the Simulator's file system.
func (s *Simulator) SetFSForUser(f func(user int) vfs.FileSystem) { s.fsFor = f }

// userFS returns the file system for one user's sessions.
func (s *Simulator) userFS(user int) vfs.FileSystem {
	if s.fsFor != nil {
		if fs := s.fsFor(user); fs != nil {
			return fs
		}
	}
	return s.fs
}

// AssignTypes deterministically apportions the spec's user-type fractions
// across the population: with fractions {0.8 heavy, 0.2 light} and five
// users, exactly four are heavy. Deterministic assignment keeps small
// populations faithful to the requested mix, which random draws would not.
func (s *Simulator) AssignTypes() []string {
	types := make([]string, s.spec.Users)
	for i := range types {
		u := (float64(i) + 0.5) / float64(s.spec.Users)
		var cum float64
		types[i] = s.spec.UserTypes[len(s.spec.UserTypes)-1].Name
		for _, ut := range s.spec.UserTypes {
			cum += ut.Fraction
			if u < cum {
				types[i] = ut.Name
				break
			}
		}
	}
	return types
}

// workItem is one file the session will access, with its remaining work.
type workItem struct {
	set      *fsc.FileSet
	cat      *config.Category // into spec.Categories
	catIdx   int
	path     string
	isDir    bool
	created  bool // file is created by the session (NEW/TEMP)
	unlink   bool // remove when done (TEMP)
	fd       vfs.FD
	open     bool
	mode     vfs.OpenMode
	size     int64 // best known size
	offset   int64
	remain   int64 // bytes still to transfer (or ops for directories)
	writeRem int64 // bytes still to write before reads begin (NEW/TEMP)
	seekNext bool  // random-access extension: seek before the next read
	slot     int32 // index in the session's items plus one: the records' trace.Record.Slot
}

// RunSession simulates one login session for the given user, synchronously.
// The random stream r must be private to the calling process for
// determinism. Valid only with a Ctx whose holds complete inline (manual or
// wall clocks); simulated processes run under RunUnderSim. An unknown user
// type is an error; operation failures are recorded in the log, not
// returned — a session cannot fail in a way that stops the user.
func (s *Simulator) RunSession(ctx vfs.Ctx, sessionID, user int, userType string, r *rand.Rand) error {
	done := false
	//wlint:allow hotalloc synchronous entry point for non-suspending clocks (setup, warming, wall-clock mode); never under the DES
	if err := s.runSessionK(ctx, newArena(), sessionID, user, userType, r, s.sink.Emit, func() { done = true }); err != nil {
		return err
	}
	if !done {
		panic("usim: RunSession used with a suspending Ctx; use RunUnderSim")
	}
	return nil
}

// runSessionK initializes the arena's session and starts its operation
// loop. The arena must not have a session in flight; emit receives every
// executed operation (a lock-free shard/stream appender under the DES, the
// sink's locked Emit elsewhere).
func (s *Simulator) runSessionK(ctx vfs.Ctx, ar *arena, sessionID, user int, userType string, r *rand.Rand, emit func(*trace.Record), k func()) error {
	think, ok := s.thinkByType[userType]
	if !ok {
		return fmt.Errorf("usim: unknown user type %q", userType)
	}
	ar.reset()
	ses := &ar.ses
	ses.sim = s
	ses.fsys = s.userFS(user)
	ses.sync.FS = ses.fsys
	ses.ctx = ctx
	ses.r = r
	ses.id = sessionID
	ses.user = user
	ses.utype = userType
	ses.think = think
	ses.emit = emit
	ses.done = k
	ses.maxOps = s.spec.MaxOps()
	ses.ext = s.spec.Ext
	ses.life = s.lifeOf(user)
	ses.selectFiles(ar)
	ses.drive()
	return nil
}

// session holds per-login state. The struct is embedded in an arena and
// reused across the sessions of one user stream. The continuations it hands
// to Hold or to a FileSystem are bound once per arena (see bind); the
// completions that only metaDone and closeItem call back are methods,
// passed as method expressions. Executing an operation allocates no
// closures.
type session struct {
	sim    *Simulator
	fsys   vfs.FileSystem
	ctx    vfs.Ctx
	r      *rand.Rand
	id     int
	user   int
	utype  string
	think  *dist.CDFTable
	items  []*workItem
	ops    int
	maxOps int
	ext    config.Extensions
	// life is the user's lifecycle state, nil for static populations. When
	// set, the crash/departure deadlines are checked at the loop top and at
	// every op completion (see lifecycle.go).
	life *lifeState

	created map[string]bool
	last    *workItem // previous op's target, for the Markov extension
	cur     *workItem // in-flight op's target (threads the op loop)

	// emit hands one record to the trace sink. The record struct (rec) is
	// pooled: the sink copies or folds it during the call and the session
	// reuses it for the next operation — the Sink ownership contract.
	emit func(*trace.Record)
	rec  trace.Record
	// done runs when the session's last operation has completed.
	done func()
	// live holds the items with work left, in items order: filled once per
	// session by selectFiles, then kept by afterStep, which drops the
	// stepped item (cur, at live[curIdx]) once its step has killed it. An
	// item's liveness changes only while it is stepped, and a dead item
	// stays dead, so live equals items filtered by itemLive at every pick.
	live   []*workItem
	curIdx int

	// Operation loop state (was closure captures; see drive).
	running bool
	pending bool

	// In-flight metadata op state: op, target item, completion, start
	// time, and the open mode for opened. Ops within a session are
	// strictly sequential, so one set of fields suffices.
	mOp    trace.Op
	mItem  *workItem
	mK     func(*session, error)
	mStart float64
	mMode  vfs.OpenMode

	// In-flight data op state.
	dOp    trace.Op
	dStart float64

	seekTarget int64 // random-access seek destination
	closeK     func(*session)
	finIdx     int // logout sweep position

	// sync issues the calls made outside the simulated operation stream,
	// on the zero clock: selectFiles' size lookup and a crash's descriptor
	// release. Its FS is the session's fsys.
	sync vfs.Sync

	// Continuations bound once per arena, the ones handed to Hold or to a
	// FileSystem: the session body never allocates a closure per operation.
	driveFn       func()
	metaDoneFn    func(error)
	statDoneFn    func(vfs.FileInfo, error)
	readdirDoneFn func([]string, error)
	fdDoneFn      func(vfs.FD, error)
	seekDoneFn    func(int64, error)
	dataDoneFn    func(int64, error)
}

// arena recycles per-session state across the sessions of one user stream:
// the session struct itself (with its seven once-bound continuations), the
// workItem free list, the items/live-set backing arrays, the created set,
// and the selectFiles scratch buffers. One arena serves at most one live
// session at a time; RunUnderSim gives each concurrent session stream its
// own.
type arena struct {
	ses        session
	free       []*workItem
	perm       []int
	candidates []string
}

func newArena() *arena {
	ar := &arena{}
	ar.ses.created = make(map[string]bool)
	ar.ses.bind()
	return ar
}

// newItem returns a zeroed workItem, reusing a reclaimed one if available.
func (ar *arena) newItem() *workItem {
	if n := len(ar.free); n > 0 {
		it := ar.free[n-1]
		ar.free = ar.free[:n-1]
		*it = workItem{}
		return it
	}
	return &workItem{}
}

// reset reclaims the previous session's items into the free list and
// clears per-session state, keeping every allocated capacity.
func (ar *arena) reset() {
	ses := &ar.ses
	ar.free = append(ar.free, ses.items...)
	ses.items = ses.items[:0]
	ses.live = ses.live[:0]
	clear(ses.created)
	ses.last, ses.cur = nil, nil
	ses.ops = 0
	ses.running, ses.pending = false, false
	ses.finIdx = 0
}

// pickWithoutReplacement draws n distinct elements of pool into the
// arena's candidate scratch. The index permutation replicates
// math/rand.Perm's exact Intn sequence into a reusable buffer, so the
// random stream — and therefore every downstream sample of the run — is
// unchanged from the r.Perm call this replaces.
func (ar *arena) pickWithoutReplacement(r *rand.Rand, pool []string, n int) []string {
	out := ar.candidates[:0]
	if n >= len(pool) {
		out = append(out, pool...)
		ar.candidates = out
		return out
	}
	m := ar.perm[:0]
	for i := 0; i < len(pool); i++ {
		j := r.Intn(i + 1)
		if j == i {
			m = append(m, i)
		} else {
			m = append(m, m[j])
			m[j] = i
		}
	}
	ar.perm = m
	for _, idx := range m[:n] {
		out = append(out, pool[idx])
	}
	ar.candidates = out
	return out
}

// bind builds the continuations the session hands to Hold or to a
// FileSystem: drive, metaDone and one result adapter per FileSystem
// signature. Called once per arena; the session pointer is stable for the
// arena's lifetime, so every closure here is shared by all of the arena's
// sessions.
func (ses *session) bind() {
	ses.driveFn = ses.drive
	ses.metaDoneFn = ses.metaDone
	ses.statDoneFn = func(_ vfs.FileInfo, err error) { ses.metaDone(err) }
	ses.readdirDoneFn = func(_ []string, err error) { ses.metaDone(err) }
	ses.fdDoneFn = func(fd vfs.FD, err error) {
		if err == nil {
			ses.mItem.fd = fd
		}
		ses.metaDone(err)
	}
	ses.seekDoneFn = func(_ int64, err error) { ses.metaDone(err) }
	ses.dataDoneFn = ses.dataDone
}

// The completions below run from metaDone once the op's record is emitted;
// startMeta takes each as a method expression.

func (ses *session) drop(error) { ses.afterStep() }

// createDone records a created file and opens it (mMode is WriteOnly).
func (ses *session) createDone(err error) {
	if err == nil {
		ses.created[ses.mItem.path] = true
	}
	ses.opened(err)
}

// opened marks the item open in mode mMode, or gives up on the file.
func (ses *session) opened(err error) {
	item := ses.mItem
	if err != nil {
		item.remain = 0
		ses.afterStep()
		return
	}
	item.open = true
	item.mode = ses.mMode
	item.offset = 0
	ses.afterStep()
}

func (ses *session) rewound(err error) {
	item := ses.mItem
	if err != nil {
		item.remain = 0
		ses.afterStep()
		return
	}
	item.offset = 0
	ses.afterStep()
}

func (ses *session) randSeeked(err error) {
	item := ses.mItem
	if err != nil {
		item.remain = 0
		ses.afterStep()
		return
	}
	item.offset = ses.seekTarget
	item.seekNext = false
	ses.afterStep()
}

// closed unlinks a TEMP file whose work is done, then runs closeK.
func (ses *session) closed(error) {
	item := ses.mItem
	item.open = false
	if item.unlink && item.remain <= 0 {
		ses.startMeta(trace.OpUnlink, item, (*session).unlinked)
		ses.fsys.Unlink(ses.ctx, item.path, ses.metaDoneFn)
		return
	}
	ses.closeK(ses)
}

func (ses *session) unlinked(error) { ses.closeK(ses) }

// reopenClosed reopens a closed write-only item read-only.
func (ses *session) reopenClosed(error) {
	item := ses.mItem
	item.open = false
	ses.mMode = vfs.ReadOnly
	ses.startMeta(trace.OpOpen, item, (*session).opened)
	ses.fsys.Open(ses.ctx, item.path, vfs.ReadOnly, ses.fdDoneFn)
}

func (ses *session) finUnlinked(error) { ses.finishLoop() }

// selectFiles performs the per-category draw: with probability PercentUsers
// the user touches the category this session, sampling how many files and,
// per file, how much of it to access (access-per-byte x file size).
func (ses *session) selectFiles(ar *arena) {
	s := ses.sim
	for catIdx := range s.spec.Categories {
		cat := &s.spec.Categories[catIdx]
		if ses.r.Float64()*100 >= cat.PercentUsers {
			continue
		}
		set := s.inv.ForUser(ses.user, catIdx)
		n := int(math.Max(1, math.Round(s.tables.FilesAccessed[catIdx].Sample(ses.r))))
		if n > set.Quota {
			n = set.Quota
		}
		fresh := cat.Use == config.UseNew || cat.Use == config.UseTemp
		var candidates []string
		if !fresh {
			if len(set.Paths) == 0 {
				continue
			}
			candidates = ar.pickWithoutReplacement(ses.r, set.Paths, n)
		}
		for i := 0; i < n; i++ {
			item := ar.newItem()
			item.set, item.cat, item.catIdx, item.isDir = set, cat, catIdx, cat.IsDir()
			if fresh {
				item.path = set.NewPath()
				item.created = true
				item.unlink = cat.Use == config.UseTemp
				item.size = int64(math.Max(1, math.Round(s.tables.FileSize[catIdx].Sample(ses.r))))
			} else {
				item.path = candidates[i]
			}
			apb := math.Max(0.05, s.tables.AccessPerByte[catIdx].Sample(ses.r))
			switch {
			case item.isDir:
				// Directories: access-per-byte maps to a count of
				// metadata operations.
				item.remain = int64(math.Max(1, math.Round(apb)))
			case item.created:
				// The file is first written to its sampled size, then
				// the rest of the byte budget is read back.
				total := int64(math.Max(1, math.Round(apb*float64(item.size))))
				item.writeRem = item.size
				if total > item.size {
					item.remain = total
				} else {
					item.remain = item.size
				}
			default:
				// Existing file: stat to learn the size, then budget
				// bytes = apb x size. A file whose lookup fails drops
				// out of the session, its item back to the arena.
				info, err := ses.sync.Stat(vfs.ZeroClock{}, item.path)
				if err != nil {
					ar.free = append(ar.free, item)
					continue
				}
				item.size = info.Size
				item.remain = int64(math.Max(1, math.Round(apb*float64(item.size))))
				if cat.Writes() {
					item.writeRem = item.remain / 2 // RD-WRT: half the budget written
				}
			}
			item.slot = int32(len(ses.items) + 1)
			ses.items = append(ses.items, item)
		}
	}
	for _, it := range ses.items {
		if itemLive(it) {
			ses.live = append(ses.live, it)
		}
	}
}

// drive is the main loop: randomly select a file with remaining work,
// perform its next operation, and pause for a sampled think time. With the
// Locality extension the previous file is preferred with that probability
// (first-order Markov dependence, §6.2); otherwise selection is independent
// (§3.1.4). The loop is a self-scheduling continuation: each iteration ends
// either inside a think-time hold or by re-entering itself directly when
// the think time is zero. It is also a trampoline: when a synchronous Ctx
// runs every continuation inline, a naive self-call would stack one frame
// chain per operation for the whole session; instead a re-entrant call just
// marks another iteration pending and unwinds back to the driving loop,
// keeping stack depth constant per op.
func (ses *session) drive() {
	ses.pending = true
	if ses.running {
		return // unwind; the driving loop below runs the next op
	}
	ses.running = true
	for ses.pending {
		ses.pending = false
		if ses.life != nil {
			now := ses.ctx.Now()
			if ses.life.crashed(now) {
				// The machine died (possibly mid-think): truncate the
				// session — no logout sweep, nothing ran.
				ses.running = false
				ses.life.drain(ses)
				return
			}
			if ses.life.departing(now) {
				// Departure is graceful: log out properly, then the
				// stream ends at the session boundary.
				ses.running = false
				ses.finish()
				return
			}
		}
		if ses.ops >= ses.maxOps {
			ses.running = false
			ses.finish()
			return
		}
		if len(ses.live) == 0 {
			ses.running = false
			ses.finish()
			return
		}
		idx := ses.r.Intn(len(ses.live))
		if ses.ext.Locality > 0 && ses.last != nil && ses.r.Float64() < ses.ext.Locality && itemLive(ses.last) {
			idx = ses.curIdx // last is the previous cur, still at curIdx
		}
		ses.curIdx = idx
		ses.cur = ses.live[idx]
		ses.step(ses.cur)
		// pending is set iff the step's whole continuation chain ran
		// inline (synchronous Ctx); under the DES the step suspended
		// and a later calendar event re-enters drive.
	}
	ses.running = false
}

// afterStep runs when an operation's continuation chain completes: drop
// the stepped item from the live set if the step killed it, account the
// op, sample the think time, and re-enter the loop.
func (ses *session) afterStep() {
	if !itemLive(ses.cur) {
		ses.live = slices.Delete(ses.live, ses.curIdx, ses.curIdx+1)
	}
	ses.last = ses.cur
	ses.ops++
	if t := ses.think.Sample(ses.r); t > 0 {
		ses.ctx.Hold(t*ses.ext.ThinkFactorAt(ses.ctx.Now()), ses.driveFn)
		return
	}
	ses.drive()
}

func itemLive(it *workItem) bool {
	return it.remain > 0 || (it.open && !it.isDir)
}

// step performs one operation on the item, respecting the logical
// constraints: open before read/write, rewind at EOF, close when done. The
// operation's continuation chain ends at afterStep.
func (ses *session) step(item *workItem) {
	switch {
	case item.isDir:
		ses.stepDir(item)
	case !item.open:
		ses.openItem(item)
	case item.remain <= 0:
		ses.closeItem(item, (*session).afterStep)
	default:
		ses.transfer(item)
	}
}

// stepDir stats or lists a directory.
func (ses *session) stepDir(item *workItem) {
	if item.remain <= 0 {
		ses.afterStep()
		return
	}
	item.remain--
	if ses.r.Intn(2) == 0 {
		ses.startMeta(trace.OpStat, item, (*session).drop)
		ses.fsys.Stat(ses.ctx, item.path, ses.statDoneFn)
		return
	}
	ses.startMeta(trace.OpReadDir, item, (*session).drop)
	ses.fsys.ReadDir(ses.ctx, item.path, ses.readdirDoneFn)
}

// openItem creates or opens the file.
func (ses *session) openItem(item *workItem) {
	if item.created && !ses.created[item.path] {
		ses.mMode = vfs.WriteOnly
		ses.startMeta(trace.OpCreate, item, (*session).createDone)
		ses.fsys.Create(ses.ctx, item.path, ses.fdDoneFn)
		return
	}
	mode := vfs.ReadOnly
	if item.cat.Writes() {
		mode = vfs.ReadWrite
	}
	ses.mMode = mode
	ses.startMeta(trace.OpOpen, item, (*session).opened)
	ses.fsys.Open(ses.ctx, item.path, mode, ses.fdDoneFn)
}

// closeItem closes the descriptor and unlinks TEMP files whose work is
// done, then runs k (the op loop, or the logout sweep).
func (ses *session) closeItem(item *workItem, k func(*session)) {
	ses.closeK = k
	ses.startMeta(trace.OpClose, item, (*session).closed)
	ses.fsys.Close(ses.ctx, item.fd, ses.metaDoneFn)
}

// seekTo issues and records a seek to the given offset, delivering the
// seek's error to k.
func (ses *session) seekTo(item *workItem, target int64, k func(*session, error)) {
	ses.startMeta(trace.OpSeek, item, k)
	ses.fsys.Seek(ses.ctx, item.fd, target, vfs.SeekStart, ses.seekDoneFn)
}

// transfer moves one sampled access size of data sequentially.
func (ses *session) transfer(item *workItem) {
	if item.size <= 0 && item.writeRem <= 0 {
		// Nothing to read and nothing left to write: an empty file
		// cannot absorb a byte budget.
		item.remain = 0
		ses.afterStep()
		return
	}
	n := int64(math.Max(1, math.Round(ses.sim.tables.AccessSize.Sample(ses.r))))
	if n > item.remain {
		n = item.remain
	}

	write := false
	switch {
	case item.writeRem > 0 && item.mode.CanWrite():
		write = true
		if n > item.writeRem {
			n = item.writeRem
		}
		// RD-WRT on an existing file updates in place: rewind at EOF and
		// clamp so the file keeps its size (growth is what NEW models).
		if !item.created {
			if item.offset >= item.size {
				ses.seekTo(item, 0, (*session).rewound)
				return
			}
			if n > item.size-item.offset {
				n = item.size - item.offset
			}
		}
	case !item.mode.CanRead():
		// Write-only descriptor (NEW/TEMP creation) with the write budget
		// exhausted: reopen read-only to read back.
		ses.reopenForRead(item)
		return
	}

	if write {
		ses.startData(trace.OpWrite, item, n)
		return
	}

	// Random-access extension (§6.2): seek to a random offset before each
	// read instead of streaming sequentially.
	if item.cat.RandomAccess() && item.size > 0 {
		if item.seekNext || item.offset >= item.size {
			ses.seekTarget = ses.r.Int63n(item.size)
			ses.seekTo(item, ses.seekTarget, (*session).randSeeked)
			return
		}
		item.seekNext = true // after the read below, reposition again
	}

	// Sequential read; rewind at EOF (re-reads are how access-per-byte
	// exceeds one).
	if item.offset >= item.size {
		ses.seekTo(item, 0, (*session).rewound)
		return
	}
	ses.startData(trace.OpRead, item, n)
}

// reopenForRead closes a write-only descriptor and reopens the file
// read-only so the remaining byte budget can be read back.
func (ses *session) reopenForRead(item *workItem) {
	ses.startMeta(trace.OpClose, item, (*session).reopenClosed)
	ses.fsys.Close(ses.ctx, item.fd, ses.metaDoneFn)
}

// finish closes any descriptors still open at logout and unlinks leftover
// TEMP files, then hands control back to the session's done continuation.
func (ses *session) finish() {
	ses.finIdx = 0
	ses.finishLoop()
}

func (ses *session) finishLoop() {
	for ses.finIdx < len(ses.items) {
		item := ses.items[ses.finIdx]
		ses.finIdx++
		if item.open {
			item.remain = 0
			ses.closeItem(item, (*session).finishLoop)
			return
		}
		if item.unlink && ses.created[item.path] && item.remain > 0 {
			ses.startMeta(trace.OpUnlink, item, (*session).finUnlinked)
			ses.fsys.Unlink(ses.ctx, item.path, ses.metaDoneFn)
			return
		}
	}
	ses.done()
}

// startData begins a timed read or write of n bytes on ses.cur; dataDone
// logs the bytes actually transferred (which may be less than requested at
// end of file) and performs the post-transfer bookkeeping.
func (ses *session) startData(op trace.Op, item *workItem, n int64) {
	ses.dOp = op
	ses.dStart = ses.ctx.Now()
	if op == trace.OpWrite {
		ses.fsys.Write(ses.ctx, item.fd, n, ses.dataDoneFn)
		return
	}
	ses.fsys.Read(ses.ctx, item.fd, n, ses.dataDoneFn)
}

// dataDone completes a data op: emit the pooled record to the sink, update
// the item's budgets, and re-enter the op loop.
func (ses *session) dataDone(got int64, err error) {
	if ses.life != nil && ses.life.crashed(ses.ctx.Now()) {
		// The machine died while this op was in flight: the lower layers
		// drained it (the server's work is wasted, as in life), but the
		// dead client observes nothing — no record, no continuation.
		ses.life.drain(ses)
		return
	}
	item := ses.cur
	ses.fillRec(ses.dOp, item, ses.dStart, err)
	if err == nil {
		ses.rec.Bytes = got
	}
	ses.emit(&ses.rec)
	if err != nil {
		item.remain = 0
		ses.afterStep()
		return
	}
	if ses.dOp == trace.OpWrite {
		item.offset += got
		if item.offset > item.size {
			item.size = item.offset
		}
		item.writeRem -= got
		item.remain -= got
		ses.afterStep()
		return
	}
	if got == 0 { // unexpected EOF (file shrank?)
		item.remain = 0
		ses.afterStep()
		return
	}
	item.offset += got
	item.remain -= got
	ses.afterStep()
}

// startMeta begins a timed, recorded metadata op on item: the file-system
// call's result adapter funnels into metaDone, which emits the record and
// dispatches k. Ops within a session are strictly sequential, so the
// single set of in-flight fields never overlaps.
func (ses *session) startMeta(op trace.Op, item *workItem, k func(*session, error)) {
	ses.mOp, ses.mItem, ses.mK = op, item, k
	ses.mStart = ses.ctx.Now()
}

// metaDone completes a metadata op: emit the pooled record and deliver the
// error to the op's completion.
func (ses *session) metaDone(err error) {
	if ses.life != nil && ses.life.crashed(ses.ctx.Now()) {
		// See dataDone: the in-flight op drains unobserved.
		ses.life.drain(ses)
		return
	}
	ses.fillRec(ses.mOp, ses.mItem, ses.mStart, err)
	ses.emit(&ses.rec)
	ses.mK(ses, err)
}

// fillRec fills the pooled record in place for an op on item that started
// at start and completes now, with no bytes moved: assigning a fresh
// Record literal would copy the whole struct per op.
func (ses *session) fillRec(op trace.Op, item *workItem, start float64, err error) {
	rec := &ses.rec
	rec.Session = ses.id
	rec.User = ses.user
	rec.UserType = ses.utype
	rec.Op = op
	rec.Path = item.path
	rec.Category = item.catIdx
	rec.Bytes = 0
	rec.FileSize = item.size
	rec.Start = start
	rec.Elapsed = ses.ctx.Now() - start
	rec.Err = ""
	if err != nil {
		rec.Err = err.Error()
	}
	rec.Slot = item.slot
}

// RunUnderSim executes the spec's sessions on a DES environment: one
// process per session stream — per user, or several per user with the
// ConcurrentSessions extension (the window-system behaviour of §6.2) — each
// running its share of login sessions back to back (see stream). Each
// stream emits to its user's sink stream without locking: the kernel is
// single-threaded, so a per-record mutex would buy nothing. Returns the
// number of sessions started, truncated ones included.
func (s *Simulator) RunUnderSim(env *sim.Env) (int, error) {
	types := s.AssignTypes()
	conc := s.spec.Ext.Concurrency()
	perStream := sessionShares(s.spec.Sessions, s.spec.Users*conc)
	next, started := 0, 0
	for u := 0; u < s.spec.Users; u++ {
		ls := s.lifeOf(u)
		for w := 0; w < conc; w++ {
			first, count := next, perStream[u*conc+w]
			next += count
			if count == 0 && ls == nil {
				// An empty stream runs no sessions and emits nothing.
				// Skipping its proc renumbers the calendar uniformly
				// (relative event order is unchanged), so output bytes are
				// identical — and an idle user costs no process. A user
				// with a lifecycle keeps its empty stream, because the
				// arrival hold extends virtual time; a lazy user that
				// never arrives has no lifecycle state (initLifecycle).
				continue
			}
			st := &stream{sim: s, name: fmt.Sprintf("user%d.%d", u, w), user: u, utype: types[u],
				life: ls, first: first, count: count, started: &started}
			env.Start(st.name, st.run) //wlint:allow hotalloc once per session stream, before the run
		}
	}
	err := env.Run(sim.Forever)
	// Every stream has ended and returned its arena: a finished run holds
	// none.
	s.arenas = nil
	if err != nil {
		return started, fmt.Errorf("usim: %w", err)
	}
	if s.hookErr != nil {
		return started, fmt.Errorf("usim: materialize user: %w", s.hookErr)
	}
	return started, nil
}

// stream is one session stream under the DES. It boots when its user
// arrives (t=0 without a lifecycle): a lazy user is materialized, and the
// stream takes its sink stream, its rng and an arena from the free list.
// It then runs sessions [first, first+count) back to back — under the
// user's departure and crash deadlines when it has a lifecycle — and at
// its end returns the arena and releases a lazy user.
type stream struct {
	sim          *Simulator
	name         string // process name and rng stream label
	user         int
	utype        string
	life         *lifeState // nil for a static user
	first, count int
	i            int  // sessions started so far
	started      *int // the run's sessions-started total

	p      *sim.Proc
	done   sim.K
	emit   func(*trace.Record)
	r      *rand.Rand
	ar     *arena
	nextFn func() // next, bound once at boot: every session's continuation
}

// run is the stream's process body: it holds until the user's arrival.
func (st *stream) run(p *sim.Proc, done sim.K) {
	st.p, st.done = p, done
	if st.life != nil && st.life.arriveAt > 0 {
		p.Hold(st.life.arriveAt, st.boot) //wlint:allow hotalloc once per session stream, at its process start
		return
	}
	st.boot()
}

// boot runs at the user's arrival and starts the first session.
func (st *stream) boot() {
	s := st.sim
	if s.spec.LazyUsers && s.hooks.Materialize != nil {
		// The user exists as of now: the hook builds its file tree and
		// bindings in a zero-clock setup burst. Streams booting at t=0 run
		// in user order, so a static lazy population replays the eager
		// build's user order exactly.
		if err := s.hooks.Materialize(st.user); err != nil {
			if s.hookErr == nil {
				s.hookErr = err
			}
			st.done()
			return
		}
	}
	// One sink stream handle per session stream, not per user: a handle's
	// sessions run back to back (contiguous ids), which is the contract
	// that lets the Summarizer retire each session's accumulator the
	// moment the handle starts the next one. With concurrent sessions,
	// windows of one user interleave, so sharing a handle across them
	// would break contiguity.
	st.emit = s.sink.Stream(st.user).Emit //wlint:allow hotalloc once per session stream, at its boot
	st.r = rng.Derive(s.spec.Seed, st.name)
	st.ar = s.getArena()
	st.nextFn = st.next //wlint:allow hotalloc once per session stream, at its boot; every session's continuation
	if st.life != nil {
		st.life.arm(st.p.Now())
	}
	st.next()
}

// next starts the stream's next session, or ends the stream once its
// share is done or its user has departed.
func (st *stream) next() {
	if st.i >= st.count {
		st.end()
		return
	}
	if st.life != nil && st.life.departing(st.p.Now()) {
		st.life.departed = true
		st.end()
		return
	}
	id := st.first + st.i
	st.i++
	*st.started++
	// A validation error cannot happen here (types come from AssignTypes);
	// operation failures are already recorded in the log — a session
	// cannot fail in a way that stops the user.
	if err := st.sim.runSessionK(st.p, st.ar, id, st.user, st.utype, st.r, st.emit, st.nextFn); err != nil {
		st.next()
	}
}

// end returns the stream's arena for the next arrival, lets the wiring
// layer release a lazy user's bindings, and ends the process.
func (st *stream) end() {
	s := st.sim
	s.putArena(st.ar)
	if s.spec.LazyUsers && s.hooks.Release != nil {
		s.hooks.Release(st.user)
	}
	st.done()
}

// RunWallClock executes the sessions against a real file system with one
// goroutine per user and wall-clock think times. clockFactory supplies each
// user's Ctx. Sessions emit through the sink's locked Emit path: wall-clock
// streams run concurrently, so the lock-free per-user streams of the DES
// path would race.
func (s *Simulator) RunWallClock(clockFactory func() vfs.Ctx) (int, error) {
	if s.life != nil {
		return 0, errors.New("usim: lifecycle requires the DES runner (RunUnderSim)")
	}
	types := s.AssignTypes()
	conc := s.spec.Ext.Concurrency()
	perStream := sessionShares(s.spec.Sessions, s.spec.Users*conc)
	var wg sync.WaitGroup
	next := 0
	total := 0
	for u := 0; u < s.spec.Users; u++ {
		for w := 0; w < conc; w++ {
			u, w := u, w
			first := next
			count := perStream[u*conc+w]
			next += count
			total += count
			r := rng.Derive(s.spec.Seed, fmt.Sprintf("user%d.%d", u, w))
			ctx := clockFactory()
			wg.Add(1)
			//wlint:allow hotalloc wall-clock mode drives real goroutines, one per user stream; the DES path never runs this
			go func() {
				defer wg.Done()
				for k := 0; k < count; k++ {
					_ = s.RunSession(ctx, first+k, u, types[u], r)
				}
			}()
		}
	}
	wg.Wait()
	return total, nil
}

// sessionShares splits total sessions across users as evenly as possible.
func sessionShares(total, users int) []int {
	out := make([]int, users)
	base := total / users
	rem := total % users
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
