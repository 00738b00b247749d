package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"uswg/internal/sim"
)

// TestQuickMemFSRandomOps drives random operation sequences in lockstep on
// a plain MemFS and on the local file system over a MemFS of its own. After
// every step both sides must have returned the same descriptors, byte
// counts, offsets and error text, and hold the same sizes and open
// descriptors. The plain side's results must also keep MemFS's invariants:
// offsets and sizes are never negative, writes move every byte, closed
// descriptors stay closed, and the namespace matches a shadow model. At the
// end every call state must be back on the LocalCost's free list, and no
// descriptor open on either side.
func TestQuickMemFSRandomOps(t *testing.T) {
	paths := []string{"/a", "/b", "/c", "/d/e"}
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		steps := 10 + int(opsRaw%400)
		mem, ns := NewMemFS(), NewMemFS()
		lc := NewLocalCost(sim.NewEnv(), testCostConfig(), ns)
		plain, local := Sync{FS: mem}, Sync{FS: lc}
		ctx := &ManualClock{}
		ok := true
		fail := func(step int, format string, args ...any) {
			t.Errorf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			ok = false
		}
		// same fails the step unless both sides' results print alike.
		same := func(step int, call string, got, want []any) {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				fail(step, "%s: local file system %v, MemFS %v", call, got, want)
			}
		}
		exists := map[string]bool{}
		var open []FD
		for _, s := range []*Sync{&plain, &local} {
			if err := s.Mkdir(ctx, "/d"); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; ok && step < steps; step++ {
			p := paths[r.Intn(len(paths))]
			kind, i := r.Intn(9), r.Intn(max(len(open), 1))
			if len(open) == 0 && kind >= 2 && kind <= 5 {
				continue // a descriptor call with nothing open
			}
			switch kind {
			case 0: // create
				fd, err := plain.Create(ctx, p)
				lfd, lerr := local.Create(ctx, p)
				same(step, "create "+p, []any{lfd, lerr}, []any{fd, err})
				if err != nil {
					fail(step, "create %s = %v", p, err)
					break
				}
				exists[p] = true
				open = append(open, fd)
			case 1: // open read-only
				fd, err := plain.Open(ctx, p, ReadOnly)
				lfd, lerr := local.Open(ctx, p, ReadOnly)
				same(step, "open "+p, []any{lfd, lerr}, []any{fd, err})
				if exists[p] != (err == nil) {
					fail(step, "open %s = %v, file exists %v", p, err, exists[p])
				}
				if err == nil {
					open = append(open, fd)
				}
			case 2: // write on an open descriptor
				fd, n := open[i], int64(r.Intn(5000))
				got, err := plain.Write(ctx, fd, n)
				lgot, lerr := local.Write(ctx, fd, n)
				same(step, fmt.Sprintf("write fd %d", fd), []any{lgot, lerr}, []any{got, err})
				if err == nil && got != n {
					fail(step, "write fd %d moved %d of %d bytes", fd, got, n)
				}
			case 3: // read on an open descriptor
				fd, n := open[i], int64(r.Intn(5000))
				got, err := plain.Read(ctx, fd, n)
				lgot, lerr := local.Read(ctx, fd, n)
				same(step, fmt.Sprintf("read fd %d", fd), []any{lgot, lerr}, []any{got, err})
				if got < 0 || got > n {
					fail(step, "read fd %d moved %d of %d bytes", fd, got, n)
				}
			case 4: // seek
				fd, to := open[i], int64(r.Intn(10000))
				pos, err := plain.Seek(ctx, fd, to, SeekStart)
				lpos, lerr := local.Seek(ctx, fd, to, SeekStart)
				same(step, fmt.Sprintf("seek fd %d", fd), []any{lpos, lerr}, []any{pos, err})
				if err != nil || pos != to {
					fail(step, "seek fd %d to %d = %d, %v", fd, to, pos, err)
				}
			case 5: // close, then close again
				fd := open[i]
				for pass := range 2 {
					err, lerr := plain.Close(ctx, fd), local.Close(ctx, fd)
					same(step, fmt.Sprintf("close fd %d", fd), []any{lerr}, []any{err})
					if (err == nil) != (pass == 0) {
						fail(step, "close %d of fd %d = %v", pass+1, fd, err)
					}
				}
				open = slices.Delete(open, i, i+1)
			case 6: // stat
				info, err := plain.Stat(ctx, p)
				linfo, lerr := local.Stat(ctx, p)
				same(step, "stat "+p, []any{linfo, lerr}, []any{info, err})
				if exists[p] != (err == nil) || info.Size < 0 {
					fail(step, "stat %s = %+v, %v; file exists %v", p, info, err, exists[p])
				}
			case 7: // unlink: open descriptors keep the file
				err, lerr := plain.Unlink(ctx, p), local.Unlink(ctx, p)
				same(step, "unlink "+p, []any{lerr}, []any{err})
				if exists[p] != (err == nil) {
					fail(step, "unlink %s = %v, file exists %v", p, err, exists[p])
				}
				delete(exists, p)
			case 8: // readdir
				dir := []string{"/", "/d", "/a"}[r.Intn(3)]
				names, err := plain.ReadDir(ctx, dir)
				lnames, lerr := local.ReadDir(ctx, dir)
				same(step, "readdir "+dir, []any{lnames, lerr}, []any{names, err})
			}
			for _, p := range paths {
				info, err := mem.Bare().Stat(p)
				linfo, lerr := ns.Bare().Stat(p)
				same(step, "size of "+p, []any{linfo, lerr}, []any{info, err})
			}
			if mem.OpenFDs() != len(open) || ns.OpenFDs() != len(open) {
				fail(step, "%d and %d descriptors open on MemFS and the local file system, want %d", mem.OpenFDs(), ns.OpenFDs(), len(open))
			}
		}
		for _, fd := range open {
			err, lerr := plain.Close(ctx, fd), local.Close(ctx, fd)
			if err != nil || lerr != nil {
				fail(steps, "close fd %d = %v on MemFS, %v on the local file system", fd, err, lerr)
			}
		}
		if mem.OpenFDs() != 0 || ns.OpenFDs() != 0 {
			fail(steps, "%d and %d descriptors left open on MemFS and the local file system", mem.OpenFDs(), ns.OpenFDs())
		}
		if freeOps(lc) != lc.opsMade {
			fail(steps, "%d of the %d call states back on the free list", freeOps(lc), lc.opsMade)
		}
		return ok
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
				if _, err := b.Unlink(p); (files[p] != nil) != (err == nil) {
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
