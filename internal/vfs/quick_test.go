package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickMemFSRandomOps drives random operation sequences against MemFS
// and checks structural invariants after every step: offsets and sizes are
// never negative, reads never run past the size, closed descriptors stay
// closed, and the namespace matches a shadow model.
func TestQuickMemFSRandomOps(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		ops := 10 + int(opsRaw%400)
		mem := NewMemFS()
		fs := Sync{FS: mem}
		ctx := &ManualClock{}

		paths := []string{"/a", "/b", "/c", "/d/e"}
		type state struct {
			size int64
		}
		shadow := map[string]*state{}
		openFDs := map[FD]string{}
		_ = fs.Mkdir(ctx, "/d")

		for i := 0; i < ops; i++ {
			p := paths[r.Intn(len(paths))]
			switch r.Intn(7) {
			case 0: // create
				fd, err := fs.Create(ctx, p)
				if err != nil {
					return false
				}
				shadow[p] = &state{}
				openFDs[fd] = p
			case 1: // open existing read-only
				fd, err := fs.Open(ctx, p, ReadOnly)
				if _, exists := shadow[p]; !exists {
					if err == nil {
						return false // opening a missing file must fail
					}
					continue
				}
				if err != nil {
					return false
				}
				openFDs[fd] = p
			case 2: // write on a random open fd
				for fd, path := range openFDs {
					n := int64(r.Intn(5000))
					got, err := fs.Write(ctx, fd, n)
					if err == nil {
						if got != n {
							return false
						}
						// Track max size via Stat below.
					}
					_ = path
					break
				}
			case 3: // read on a random open fd
				for fd := range openFDs {
					got, err := fs.Read(ctx, fd, int64(r.Intn(5000)))
					if err == nil && got < 0 {
						return false
					}
					break
				}
			case 4: // seek
				for fd := range openFDs {
					pos, err := fs.Seek(ctx, fd, int64(r.Intn(10000)), SeekStart)
					if err != nil || pos < 0 {
						return false
					}
					break
				}
			case 5: // close
				for fd := range openFDs {
					if err := fs.Close(ctx, fd); err != nil {
						return false
					}
					if err := fs.Close(ctx, fd); err == nil {
						return false // double close must fail
					}
					delete(openFDs, fd)
					break
				}
			case 6: // stat and cross-check existence with the shadow
				info, err := fs.Stat(ctx, p)
				_, exists := shadow[p]
				if exists != (err == nil) {
					return false
				}
				if err == nil && info.Size < 0 {
					return false
				}
			}
		}
		// All open descriptors close cleanly at the end.
		for fd := range openFDs {
			if err := fs.Close(ctx, fd); err != nil {
				return false
			}
		}
		return mem.OpenFDs() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickSplitPath checks that SplitPath accepts exactly the absolute
// paths whose rejoining reproduces the cleaned form.
func TestQuickSplitPath(t *testing.T) {
	f := func(segsRaw []uint8) bool {
		path := ""
		want := 0
		for _, s := range segsRaw {
			seg := string(rune('a' + s%26))
			path += "/" + seg
			want++
		}
		if path == "" {
			path = "/"
		}
		segs, err := SplitPath(path)
		if err != nil {
			return false
		}
		return len(segs) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickAdvanceMatchesSeekAndTransfer checks Bare.Advance against a model
// of the sequence it replaces in the NFS client: a Seek(fd, 0, SeekCurrent)
// for the offset, then a Read or Write. Random create/open/advance/seek/
// close/CloseOwned/unlink sequences by three owners, under a small
// descriptor limit, must agree with the model in FD numbers, offsets, byte
// counts, file sizes, OpenFDs and ErrTooManyFD. Advance, Seek and Close on
// a never-issued, closed or other owner's FD must fail with ErrBadFD, and
// Advance's mode and negative-size errors must come in that order, all with
// their usual text.
// Owner must name each open descriptor's owner, and nil for any other FD.
// The model's descriptor table is a map, the form the MemFS table had
// before it became a window; the window must keep its closed prefix under
// half its length and be empty once every descriptor closes.
func TestQuickAdvanceMatchesSeekAndTransfer(t *testing.T) {
	type file struct{ size int64 }
	type desc struct {
		f     *file
		off   int64
		mode  OpenMode
		owner int
	}
	owners := []any{nil, new(int), new(int)}
	modes := []OpenMode{ReadOnly, WriteOnly, ReadWrite}
	paths := []string{"/a", "/b", "/d/c"}
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		maxFDs := 2 + r.Intn(12)
		m := NewMemFS(WithMaxFDs(maxFDs))
		b := m.Bare()
		if err := b.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		files := map[string]*file{}
		fds := map[FD]*desc{}
		issued := []FD{0, 999} // never issued: below the first FD, and past the last
		next := FD(3)
		const tooMany = "vfs: too many open files"
		// fail reports the step and stops the case.
		ok := true
		fail := func(step int, format string, args ...any) {
			t.Errorf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			ok = false
		}
		// checkWindow checks the descriptor window against the model: it
		// ends at the next FD to be issued and holds exactly the open
		// descriptors; its closed prefix is shorter than half of it, so it
		// is shorter than twice nextFD minus the oldest open FD; and it is
		// empty when nothing is open.
		checkWindow := func(step int) {
			if end := m.fdBase + FD(len(m.fds)); end != next {
				fail(step, "window ends at %d, next FD is %d", end, next)
			}
			oldest := next
			for i, of := range m.fds {
				fd := m.fdBase + FD(i)
				if (fds[fd] != nil) != (of != nil) {
					fail(step, "window entry for fd %d is %v, model has %v", fd, of, fds[fd])
				}
				if of != nil {
					oldest = min(oldest, fd)
				}
			}
			if len(fds) == 0 && len(m.fds) != 0 {
				fail(step, "window holds %d entries with nothing open", len(m.fds))
			}
			if prefix := oldest - m.fdBase; len(fds) > 0 && 2*prefix >= FD(len(m.fds)) {
				fail(step, "closed prefix of %d in a %d-entry window", prefix, len(m.fds))
			}
		}
		steps := 50 + int(opsRaw%300)
		for step := 0; ok && step < steps; step++ {
			p := paths[r.Intn(len(paths))]
			who := r.Intn(len(owners))
			switch r.Intn(9) {
			case 0: // create (refused with the table full, before it touches the file)
				fd, _, err := b.Create(p, owners[who])
				if len(fds) >= maxFDs {
					if err == nil || err.Error() != tooMany {
						fail(step, "create %s with %d open = %d, %v; want %q", p, len(fds), fd, err, tooMany)
					}
					break
				}
				if files[p] == nil {
					files[p] = &file{}
				}
				files[p].size = 0
				if err != nil || fd != next {
					fail(step, "create %s = %d, %v; want fd %d", p, fd, err, next)
					break
				}
				next++
				fds[fd] = &desc{f: files[p], mode: WriteOnly, owner: who}
				issued = append(issued, fd)
			case 1: // open
				mode := modes[r.Intn(len(modes))]
				fd, err := b.Open(p, mode, owners[who])
				if files[p] == nil {
					if !errors.Is(err, ErrNotExist) {
						fail(step, "open missing %s = %v", p, err)
					}
					break
				}
				if len(fds) >= maxFDs {
					if err == nil || err.Error() != tooMany {
						fail(step, "open %s with %d open = %d, %v; want %q", p, len(fds), fd, err, tooMany)
					}
					break
				}
				if err != nil || fd != next {
					fail(step, "open %s = %d, %v; want fd %d", p, fd, err, next)
					break
				}
				next++
				fds[fd] = &desc{f: files[p], mode: mode, owner: who}
				issued = append(issued, fd)
			case 2, 3, 4: // advance on any FD ever issued, by any owner
				fd := issued[r.Intn(len(issued))]
				n := int64(r.Intn(5000))
				if r.Intn(6) == 0 {
					n = -1 - int64(r.Intn(4))
				}
				write := r.Intn(2) == 0
				_, _, off, got, err := b.Advance(fd, n, write, owners[who])
				d := fds[fd]
				verb := "read"
				if write {
					verb = "write"
				}
				var want string
				switch {
				case d == nil || d.owner != who:
					want = fmt.Sprintf("vfs: bad file descriptor: %d", fd)
				case write && !d.mode.CanWrite() || !write && !d.mode.CanRead():
					want = fmt.Sprintf("vfs: operation not permitted by open mode: %s on %s descriptor", verb, d.mode)
				case n < 0:
					want = fmt.Sprintf("vfs: invalid argument: negative %s size %d", verb, n)
				}
				if want != "" {
					if err == nil || err.Error() != want {
						fail(step, "%s fd %d n %d by owner %d = %v, want %q", verb, fd, n, who, err, want)
					}
					break
				}
				// The replaced pair: the offset Seek(fd, 0, SeekCurrent)
				// reports, then the bytes Read or Write moves.
				wantOff, wantN := d.off, n
				if write {
					d.off += n
					d.f.size = max(d.f.size, d.off)
				} else {
					wantN = max(min(n, d.f.size-d.off), 0)
					d.off += wantN
				}
				if err != nil || off != wantOff || got != wantN {
					fail(step, "%s fd %d n %d = off %d, %d bytes, %v; want off %d, %d bytes", verb, fd, n, off, got, err, wantOff, wantN)
				}
			case 5: // seek serves the opener only
				fd := issued[r.Intn(len(issued))]
				to := int64(r.Intn(8000))
				pos, err := b.Seek(fd, to, SeekStart, owners[who])
				if d := fds[fd]; d != nil && d.owner == who {
					d.off = to
					if err != nil || pos != to {
						fail(step, "seek fd %d to %d = %d, %v", fd, to, pos, err)
					}
				} else if err == nil || err.Error() != fmt.Sprintf("vfs: bad file descriptor: %d", fd) {
					fail(step, "seek fd %d by owner %d = %v", fd, who, err)
				}
			case 6: // close serves the opener only
				fd := issued[r.Intn(len(issued))]
				err := b.Close(fd, owners[who])
				if d := fds[fd]; d != nil && d.owner == who {
					if err != nil {
						fail(step, "close fd %d = %v", fd, err)
					}
					delete(fds, fd)
				} else if err == nil || err.Error() != fmt.Sprintf("vfs: bad file descriptor: %d", fd) {
					fail(step, "close fd %d by owner %d = %v", fd, who, err)
				}
			case 7: // CloseOwned closes the owner's descriptors only
				b.CloseOwned(owners[who])
				for fd, d := range fds {
					if d.owner == who {
						delete(fds, fd)
					}
				}
			case 8: // unlink: open descriptors keep the file
				if err := b.Unlink(p); (files[p] != nil) != (err == nil) {
					fail(step, "unlink %s = %v", p, err)
				}
				delete(files, p)
			}
			for path, f := range files {
				if info, err := b.Stat(path); err != nil || info.Size != f.size {
					fail(step, "stat %s = %+v, %v; want size %d", path, info, err, f.size)
				}
			}
			if m.OpenFDs() != len(fds) {
				fail(step, "OpenFDs = %d, model has %d open", m.OpenFDs(), len(fds))
			}
			for _, fd := range issued {
				var want any
				if d := fds[fd]; d != nil {
					want = owners[d.owner]
				}
				if got := b.Owner(fd); got != want {
					fail(step, "Owner(%d) = %v, want %v", fd, got, want)
				}
			}
			checkWindow(step)
		}
		for _, o := range owners {
			b.CloseOwned(o)
		}
		clear(fds)
		if m.OpenFDs() != 0 {
			fail(steps, "OpenFDs = %d after every owner closed", m.OpenFDs())
		}
		checkWindow(steps)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
