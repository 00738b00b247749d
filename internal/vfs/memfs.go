package vfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// MemFS is an in-memory inode-based file system. File content is represented
// by size only — the workload generator measures operation streams and
// timing, not data — which keeps multi-gigabyte synthetic file systems cheap.
// It charges no time: as a FileSystem every call delivers its result before
// it returns, whatever the Ctx. The simulated file systems that charge time
// (LocalCost, the NFS client) keep their namespace in a MemFS and drive it
// through its Bare facade.
//
// A MemFS is not safe for concurrent use. Every caller drives it from one
// goroutine: the DES kernel, a synchronous setup clock, or a tool. The
// wall-clock runner, the one path with a goroutine per user stream, drives
// the real file system instead.
//
// Descriptors number upward from 3 and are never reused. The table is a
// window over them, fds[i] being descriptor fdBase+i (nil once closed), so
// a lookup indexes instead of hashing. The window ends at the next
// descriptor to be issued; its closed prefix is dropped once it is half the
// window, and an empty window restarts at the front of its array, so a
// steady open/close stream reuses one array.
//
// The namespace is one table for the whole tree, not a map per directory.
// Inodes live in an arena of fixed-size chunks, numbered by arena index (0
// is never issued, so a 0 link names no inode). A directory threads its
// children on an intrusive sibling list, and one open-addressing index
// keyed by (parent, name) resolves a path segment.
type MemFS struct {
	inodes  []*[inodeChunk]inode // arena: inode i is inodes[i/inodeChunk][i%inodeChunk]
	nextIno uint32               // last inode number issued
	index   []uint32             // namespace index: a linked inode per bucket, 0 when empty
	shift   uint                 // 64 - log2(len(index)): a hash's top bits pick the bucket
	linked  int                  // inodes in the index
	fds     []*openFile
	fdBase  FD  // descriptor number of fds[0]
	fdLo    int // fds[:fdLo] are all closed
	openFDs int // non-nil entries of fds
	maxFDs  int
	ofree   []*openFile // recycled descriptor states
}

// rootIno is the root directory's inode number.
const rootIno = 1

// inodeChunk is the arena's chunk length. Chunks never move, so an inode's
// address holds for the file system's life.
const inodeChunk = 256

// inode is one file or directory. Its links are inode numbers, 0 for none.
type inode struct {
	size   int64
	name   string // final segment of the creating path; "" for the root and once unlinked
	parent uint32 // directory the name is linked in
	first  uint32 // a directory's newest child
	next   uint32 // the next older child of the same parent
	dir    bool
}

type openFile struct {
	ino  uint32
	off  int64
	mode OpenMode
	path string
	// owner is the opener's tag: nil for FileSystem callers, the opening
	// client for descriptors taken through Bare. Reads and writes must
	// present the same tag.
	owner any
}

// Option configures a MemFS.
type Option func(*MemFS)

// WithMaxFDs bounds the per-file-system descriptor table (default 1024,
// mirroring a period UNIX per-process limit of open files).
func WithMaxFDs(n int) Option {
	return func(fs *MemFS) {
		if n > 0 {
			fs.maxFDs = n
		}
	}
}

// NewMemFS returns an empty file system containing only the root directory.
func NewMemFS(opts ...Option) *MemFS {
	fs := &MemFS{
		inodes:  []*[inodeChunk]inode{new([inodeChunk]inode)},
		nextIno: rootIno,
		index:   make([]uint32, 8),
		shift:   64 - 3,
		fdBase:  3, // 0-2 are traditionally stdio
		maxFDs:  1024,
	}
	fs.node(rootIno).dir = true
	for _, o := range opts {
		o(fs)
	}
	return fs
}

var _ FileSystem = (*MemFS)(nil)

// node returns inode ino.
func (fs *MemFS) node(ino uint32) *inode {
	return &fs.inodes[ino/inodeChunk][ino%inodeChunk]
}

// newInode issues the next inode number and links it under name in
// directory parent, at the head of its sibling list and in the index, which
// first doubles if it would be more than half full. Inodes are never freed
// (an unlinked one only loses its name), so the arena grows a chunk at a
// time: large construction runs cost one allocation per chunk.
func (fs *MemFS) newInode(parent uint32, name string, dir bool) uint32 {
	fs.nextIno++
	ino := fs.nextIno
	if ino%inodeChunk == 0 {
		fs.inodes = append(fs.inodes, new([inodeChunk]inode))
	}
	p := fs.node(parent)
	*fs.node(ino) = inode{name: name, parent: parent, next: p.first, dir: dir}
	p.first = ino
	if 2*(fs.linked+1) > len(fs.index) {
		fs.growIndex()
	}
	b, _ := fs.find(parent, name)
	fs.index[b] = ino
	fs.linked++
	return ino
}

// home returns the bucket the probe run of (parent, name) starts at: the
// name's FNV-1a hash, folded as rng.DeriveSeed folds one, xored with the
// parent and scrambled by Knuth's multiplicative hash (2^64/φ), whose top
// bits pick the bucket. The hash takes no random seed, so runs and profiles
// repeat.
func (fs *MemFS) home(parent uint32, name string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(((h ^ uint64(parent)) * 0x9e3779b97f4a7c15) >> fs.shift)
}

// find returns the bucket holding (parent, name) and its inode, or the empty
// bucket that ends its probe run and 0. It compares the parent before the
// name, and string equality compares lengths before bytes.
func (fs *MemFS) find(parent uint32, name string) (int, uint32) {
	mask := len(fs.index) - 1
	for b := fs.home(parent, name); ; b = (b + 1) & mask {
		ino := fs.index[b]
		if ino == 0 {
			return b, 0
		}
		if n := fs.node(ino); n.parent == parent && n.name == name {
			return b, ino
		}
	}
}

// growIndex doubles the index and reinserts every linked inode.
func (fs *MemFS) growIndex() {
	old := fs.index
	fs.index = make([]uint32, 2*len(old))
	fs.shift--
	for _, ino := range old {
		if ino != 0 {
			n := fs.node(ino)
			b, _ := fs.find(n.parent, n.name)
			fs.index[b] = ino
		}
	}
}

// unlinkName drops linked inode ino's name. Its bucket is emptied, each
// later entry of the probe run moving back into the hole when the hole lies
// cyclically between the entry's home and its bucket, so every entry stays
// reachable from its home and no tombstones build up. Then it leaves its
// parent's sibling list, and its name is cleared so the creating path's
// bytes can be collected.
func (fs *MemFS) unlinkName(ino uint32) {
	n := fs.node(ino)
	mask := len(fs.index) - 1
	b, _ := fs.find(n.parent, n.name)
	for j := (b + 1) & mask; fs.index[j] != 0; j = (j + 1) & mask {
		m := fs.node(fs.index[j])
		if (j-fs.home(m.parent, m.name))&mask >= (j-b)&mask {
			fs.index[b] = fs.index[j]
			b = j
		}
	}
	fs.index[b] = 0
	fs.linked--
	link := &fs.node(n.parent).first
	for *link != ino {
		link = &fs.node(*link).next
	}
	*link = n.next
	n.name, n.next = "", 0
}

// getOpenFile pops a recycled descriptor state or allocates one.
func (fs *MemFS) getOpenFile() *openFile {
	if n := len(fs.ofree); n > 0 {
		of := fs.ofree[n-1]
		fs.ofree = fs.ofree[:n-1]
		return of
	}
	return &openFile{}
}

// lookup resolves path to its parent directory's inode, its final segment
// and that segment's inode (0 when absent; the parent is 0 for the root
// itself). Plain paths — every segment non-empty and neither "." nor ".." —
// walk the tree in place without allocating; anything else takes the
// general splitter. Namespace resolution runs on every simulated operation,
// and the two slices SplitPath allocates per call were measurable on macro
// benchmarks.
func (fs *MemFS) lookup(path string) (parent uint32, name string, ino uint32, err error) {
	if len(path) == 0 || path[0] != '/' {
		return 0, "", 0, fmt.Errorf("%w: %q", ErrInvalid, path)
	}
	if !pathIsPlain(path) {
		return fs.lookupSlow(path)
	}
	cur := uint32(rootIno)
	i := 1
	comp := 0
	for {
		j := strings.IndexByte(path[i:], '/')
		if j < 0 {
			name = path[i:]
			_, ino = fs.find(cur, name)
			return cur, name, ino, nil
		}
		_, next := fs.find(cur, path[i:i+j])
		if next == 0 {
			return 0, "", 0, fmt.Errorf("%w: %q (component %d)", ErrNotExist, path, comp)
		}
		if !fs.node(next).dir {
			return 0, "", 0, fmt.Errorf("%w: %q (component %d)", ErrNotDir, path, comp)
		}
		cur = next
		comp++
		i += j + 1
	}
}

// pathIsPlain reports whether every segment of the rooted path is a plain
// name (no empty segments from "//" or a trailing "/", no "." or "..").
func pathIsPlain(path string) bool {
	segStart := 1
	for i := 1; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			seg := path[segStart:i]
			if len(seg) == 0 || seg == "." || seg == ".." {
				return false
			}
			segStart = i + 1
		}
	}
	return true
}

// lookupSlow resolves non-plain paths through SplitPath, exactly as lookup
// always did before the in-place fast path.
func (fs *MemFS) lookupSlow(path string) (parent uint32, name string, ino uint32, err error) {
	segs, err := SplitPath(path)
	if err != nil {
		return 0, "", 0, fmt.Errorf("%w: %q", err, path)
	}
	cur := uint32(rootIno)
	if len(segs) == 0 {
		return 0, "", cur, nil
	}
	for i, s := range segs[:len(segs)-1] {
		_, next := fs.find(cur, s)
		if next == 0 {
			return 0, "", 0, fmt.Errorf("%w: %q (component %d)", ErrNotExist, path, i)
		}
		if !fs.node(next).dir {
			return 0, "", 0, fmt.Errorf("%w: %q (component %d)", ErrNotDir, path, i)
		}
		cur = next
	}
	name = segs[len(segs)-1]
	_, ino = fs.find(cur, name)
	return cur, name, ino, nil
}

// Mkdir creates a directory. Parents must already exist.
func (fs *MemFS) Mkdir(_ Ctx, path string, k func(error)) { k(fs.mkdir(path)) }

func (fs *MemFS) mkdir(path string) error {
	parent, name, ino, err := fs.lookup(path)
	if err != nil {
		return err
	}
	if parent == 0 || ino != 0 { // the root itself, or taken
		return fmt.Errorf("%w: %q", ErrExist, path)
	}
	fs.newInode(parent, name, true)
	return nil
}

// IsExist reports whether err indicates an already-existing file.
func IsExist(err error) bool { return errors.Is(err, ErrExist) }

// Create creates (or truncates) a regular file and opens it write-only.
func (fs *MemFS) Create(_ Ctx, path string, k func(FD, error)) {
	fd, _, err := fs.create(path, nil)
	k(fd, err)
}

// create is Create for owner. It also returns the file's inode.
func (fs *MemFS) create(path string, owner any) (FD, uint64, error) {
	parent, name, ino, err := fs.lookup(path)
	if err != nil {
		return 0, 0, err
	}
	if parent == 0 || ino != 0 && fs.node(ino).dir {
		return 0, 0, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	// Refuse the descriptor before touching the namespace, as EMFILE
	// does: a refused create neither truncates nor links a file.
	if fs.openFDs >= fs.maxFDs {
		return 0, 0, ErrTooManyFD
	}
	if ino != 0 {
		fs.node(ino).size = 0
	} else {
		ino = fs.newInode(parent, name, false)
	}
	fd, err := fs.allocFD(ino, WriteOnly, path, owner)
	return fd, uint64(ino), err
}

// Open opens an existing regular file.
func (fs *MemFS) Open(_ Ctx, path string, mode OpenMode, k func(FD, error)) {
	k(fs.open(path, mode, nil))
}

// open is Open for owner.
func (fs *MemFS) open(path string, mode OpenMode, owner any) (FD, error) {
	if mode != ReadOnly && mode != WriteOnly && mode != ReadWrite {
		return 0, fmt.Errorf("%w: open mode %d", ErrInvalid, mode)
	}
	_, _, ino, err := fs.lookup(path)
	if err != nil {
		return 0, err
	}
	if ino == 0 {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if fs.node(ino).dir {
		return 0, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	return fs.allocFD(ino, mode, path, owner)
}

func (fs *MemFS) allocFD(ino uint32, mode OpenMode, path string, owner any) (FD, error) {
	if fs.openFDs >= fs.maxFDs {
		return 0, ErrTooManyFD
	}
	of := fs.getOpenFile()
	of.ino, of.off, of.mode, of.path, of.owner = ino, 0, mode, path, owner
	fs.fds = append(fs.fds, of)
	fs.openFDs++
	return fs.fdBase + FD(len(fs.fds)-1), nil
}

// file returns descriptor fd's state, or nil if fd is not open.
func (fs *MemFS) file(fd FD) *openFile {
	if i := uint(fd - fs.fdBase); i < uint(len(fs.fds)) {
		return fs.fds[i]
	}
	return nil
}

// owned returns descriptor fd's state if it is open for owner, else nil.
func (fs *MemFS) owned(fd FD, owner any) *openFile {
	if of := fs.file(fd); of != nil && of.owner == owner {
		return of
	}
	return nil
}

// advance moves owner's descriptor over a read of up to n bytes, or a write
// of n bytes that extends the file as needed. It returns the file's inode
// and path and the offset and length the transfer covers (m = 0 at end of
// file). A descriptor that is not open, or was opened by another owner, is
// ErrBadFD; then the open mode and a negative size are checked, in that
// order.
func (fs *MemFS) advance(fd FD, n int64, write bool, owner any) (ino uint64, path string, off, m int64, err error) {
	of := fs.owned(fd, owner)
	if of == nil {
		return 0, "", 0, 0, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	verb, allowed := "read", of.mode.CanRead()
	if write {
		verb, allowed = "write", of.mode.CanWrite()
	}
	if !allowed {
		return 0, "", 0, 0, fmt.Errorf("%w: %s on %s descriptor", ErrBadMode, verb, of.mode)
	}
	if n < 0 {
		return 0, "", 0, 0, fmt.Errorf("%w: negative %s size %d", ErrInvalid, verb, n)
	}
	off = of.off
	f := fs.node(of.ino)
	if write {
		f.size = max(f.size, off+n)
	} else {
		n = min(n, max(f.size-off, 0)) // 0 at end of file
	}
	of.off = off + n
	return uint64(of.ino), of.path, off, n, nil
}

// Read transfers up to n bytes from the descriptor's current offset.
func (fs *MemFS) Read(_ Ctx, fd FD, n int64, k func(int64, error)) {
	_, _, _, m, err := fs.advance(fd, n, false, nil)
	k(m, err)
}

// Write transfers n bytes at the descriptor's current offset, extending the
// file as needed.
func (fs *MemFS) Write(_ Ctx, fd FD, n int64, k func(int64, error)) {
	_, _, _, m, err := fs.advance(fd, n, true, nil)
	k(m, err)
}

// Seek repositions the descriptor's offset.
func (fs *MemFS) Seek(_ Ctx, fd FD, offset int64, whence int, k func(int64, error)) {
	k(fs.seek(fd, offset, whence, nil))
}

func (fs *MemFS) seek(fd FD, offset int64, whence int, owner any) (int64, error) {
	of := fs.owned(fd, owner)
	if of == nil {
		return 0, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	var base int64
	switch whence {
	case SeekStart:
		base = 0
	case SeekCurrent:
		base = of.off
	case SeekEnd:
		base = fs.node(of.ino).size
	default:
		return 0, fmt.Errorf("%w: whence %d", ErrInvalid, whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("%w: seek to %d", ErrInvalid, pos)
	}
	of.off = pos
	return pos, nil
}

// Close releases the descriptor.
func (fs *MemFS) Close(_ Ctx, fd FD, k func(error)) { k(fs.close(fd, nil)) }

func (fs *MemFS) close(fd FD, owner any) error {
	if fs.owned(fd, owner) == nil {
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	fs.release(fd)
	return nil
}

// release drops open descriptor fd and recycles its state. Once the closed
// prefix of the window is at least half of it, the prefix is dropped by
// moving the rest down, which moves no more entries than it drops, so a
// release costs amortized O(1); a window with nothing open restarts at the
// front of its array.
func (fs *MemFS) release(fd FD) {
	i := int(fd - fs.fdBase)
	of := fs.fds[i]
	fs.fds[i] = nil
	fs.openFDs--
	*of = openFile{}
	fs.ofree = append(fs.ofree, of)
	for fs.fdLo < len(fs.fds) && fs.fds[fs.fdLo] == nil {
		fs.fdLo++
	}
	if 2*fs.fdLo >= len(fs.fds) {
		fs.fdBase += FD(fs.fdLo)
		fs.fds = slices.Delete(fs.fds, 0, fs.fdLo)
		fs.fdLo = 0
	}
}

// Unlink removes a file name. Data reachable through open descriptors
// survives until they close.
func (fs *MemFS) Unlink(_ Ctx, path string, k func(error)) {
	_, err := fs.unlink(path)
	k(err)
}

// unlink is Unlink. It also returns the unlinked inode.
func (fs *MemFS) unlink(path string) (uint64, error) {
	_, _, ino, err := fs.lookup(path)
	if err != nil {
		return 0, err
	}
	if ino == 0 {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if fs.node(ino).dir {
		return 0, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	fs.unlinkName(ino)
	return uint64(ino), nil
}

// Stat returns metadata for a path.
func (fs *MemFS) Stat(_ Ctx, path string, k func(FileInfo, error)) { k(fs.stat(path)) }

func (fs *MemFS) stat(path string) (FileInfo, error) {
	_, _, ino, err := fs.lookup(path)
	if err != nil {
		return FileInfo{}, err
	}
	if ino == 0 {
		return FileInfo{}, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	n := fs.node(ino)
	return FileInfo{Path: path, Ino: uint64(ino), Size: n.size, IsDir: n.dir}, nil
}

// ReadDir lists a directory in lexical order.
func (fs *MemFS) ReadDir(_ Ctx, path string, k func([]string, error)) { k(fs.readDir(path)) }

func (fs *MemFS) readDir(path string) ([]string, error) {
	_, _, ino, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if ino == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	d := fs.node(ino)
	if !d.dir {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	count := 0
	for c := d.first; c != 0; c = fs.node(c).next {
		count++
	}
	names := make([]string, 0, count)
	for c := d.first; c != 0; c = fs.node(c).next {
		names = append(names, fs.node(c).name)
	}
	sort.Strings(names)
	return names, nil
}

// OpenFDs returns the number of descriptors currently open.
func (fs *MemFS) OpenFDs() int { return fs.openFDs }

// Bare is MemFS's synchronous facade: plain call-and-return namespace
// operations. It is the namespace under the file systems that charge time —
// LocalCost, and the NFS client's shadow of the server namespace — which
// make each call's namespace change here and charge their own time;
// paying the continuation-adapter allocations on every shadow lookup showed
// up in profiles. Operations behave exactly like their MemFS FileSystem
// counterparts.
//
// Create and Open record an owner, an opaque comparable tag (the NFS client
// passes itself), and Advance, Seek and Close serve only that owner, so the
// descriptor table doubles as each owner's list of open files and Owner
// tells which owner holds a descriptor.
type Bare struct {
	FS *MemFS
}

// Bare returns the cost-free facade.
func (fs *MemFS) Bare() Bare { return Bare{FS: fs} }

// Mkdir creates a directory.
func (b Bare) Mkdir(path string) error { return b.FS.mkdir(path) }

// Create creates (or truncates) a regular file open for writing by owner,
// and returns the file's inode with the descriptor.
func (b Bare) Create(path string, owner any) (FD, uint64, error) {
	return b.FS.create(path, owner)
}

// Open opens an existing regular file for owner.
func (b Bare) Open(path string, mode OpenMode, owner any) (FD, error) {
	return b.FS.open(path, mode, owner)
}

// Advance moves owner's descriptor over a read of up to n bytes (write
// false) or a write of n bytes, in one lookup. It returns the file's inode
// and path and the offset and byte count the transfer covers; m is 0 at end
// of file. A descriptor not open for owner is ErrBadFD, checked before the
// open mode (ErrBadMode) and then a negative n (ErrInvalid).
func (b Bare) Advance(fd FD, n int64, write bool, owner any) (ino uint64, path string, off, m int64, err error) {
	return b.FS.advance(fd, n, write, owner)
}

// Owned reports whether fd is open for owner, with the file's inode and
// path.
func (b Bare) Owned(fd FD, owner any) (ino uint64, path string, ok bool) {
	of := b.FS.owned(fd, owner)
	if of == nil {
		return 0, "", false
	}
	return uint64(of.ino), of.path, true
}

// Owner returns the tag fd was opened with, or nil if fd is not open.
func (b Bare) Owner(fd FD) any {
	if of := b.FS.file(fd); of != nil {
		return of.owner
	}
	return nil
}

// CloseOwned closes every descriptor open for owner, in ascending order.
// It walks the whole descriptor window, so a call costs O(window), whoever
// opened the descriptors in it.
func (b Bare) CloseOwned(owner any) {
	fs := b.FS
	for fd, next := fs.fdBase+FD(fs.fdLo), fs.fdBase+FD(len(fs.fds)); fd < next; fd++ {
		if of := fs.file(fd); of != nil && of.owner == owner {
			fs.release(fd)
		}
	}
}

// Seek repositions owner's descriptor's offset. A descriptor not open for
// owner is ErrBadFD, as in Advance.
func (b Bare) Seek(fd FD, offset int64, whence int, owner any) (int64, error) {
	return b.FS.seek(fd, offset, whence, owner)
}

// Close releases owner's descriptor. A descriptor not open for owner is
// ErrBadFD, as in Advance.
func (b Bare) Close(fd FD, owner any) error { return b.FS.close(fd, owner) }

// Unlink removes a file name and returns the inode it named.
func (b Bare) Unlink(path string) (uint64, error) { return b.FS.unlink(path) }

// Stat returns metadata for a path.
func (b Bare) Stat(path string) (FileInfo, error) { return b.FS.stat(path) }

// ReadDir lists a directory in lexical order.
func (b Bare) ReadDir(path string) ([]string, error) { return b.FS.readDir(path) }
