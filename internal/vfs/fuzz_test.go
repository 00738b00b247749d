package vfs

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// nsNames is FuzzMemFSNamespace's name alphabet: eight names of one to
// three bytes, some sharing a prefix or a length, so probe runs mix equal
// parents with unequal names and equal names with unequal parents.
var nsNames = [8]string{"a", "b", "c", "ab", "ba", "abc", "bca", "z"}

// nsEntry is one name of the fuzzer's map model.
type nsEntry struct {
	ino  uint64
	dir  bool
	size int64
	kids map[string]bool // a directory's child names
}

// nsOp decodes one two-byte call: the low three bits of x pick the call
// (mkdir, create and unlink twice as often as readdir and open, so the tree
// grows and churns), the next two a depth of one to three, and three-bit
// fields of x and y the names along the path. The path is built by
// concatenation, as callers build theirs. A create writes y bytes.
func nsOp(x, y byte) (kind byte, path, parent, name string, size int64) {
	picks := [3]byte{x >> 5, y & 7, (y >> 3) & 7}
	parent = "/"
	for i := range 1 + int(x>>3&3)%3 {
		if i > 0 {
			parent = path
		}
		name = nsNames[picks[i]]
		path += "/" + name
	}
	return x & 7, path, parent, name, int64(y)
}

// FuzzMemFSNamespace decodes bytes into mkdir/create/unlink/readdir/open
// calls on a MemFS over a three-level tree of nsNames, up to 584
// names, and holds the file system to a map model. Each call must fail
// with the model's error text (kind, path and the missing or non-directory
// component) or succeed with the model's inode numbers, sizes and bytes
// read; after each call Stat of its path, ReadDir of its parent and
// TotalBytes must agree with the model, and at the end every modelled name
// must still resolve. The generated seeds run 2,000 calls each: enough names
// for the namespace index to double six times or more, probe runs that wrap
// past the table's end, and unlinks from the middle of runs.
func FuzzMemFSNamespace(f *testing.F) {
	f.Add([]byte{})
	// mkdir /a, create /a/b (9 bytes), readdir /a, open /a/b, create
	// /a/b/c (not a directory), unlink /a/b, open /a/b (gone).
	f.Add([]byte{0x00, 0, 0x09, 9, 0x04, 0, 0x0d, 1, 0x11, 0x11, 0x0a, 1, 0x0d, 1})
	// Of the first twelve rand sources, these three delete names from probe
	// runs that wrap past the table's end, next to a name whose home lies
	// across the wrap: the case a shift test that ignores the wrap gets
	// wrong.
	for _, seed := range []int64{2, 11, 12} {
		x := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(x)
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x []byte) {
		m := NewMemFS()
		b := m.Bare()
		model := map[string]*nsEntry{"/": {ino: rootIno, dir: true, kids: map[string]bool{}}}
		lastIno := uint64(rootIno)
		var total int64
		// resolve returns the model's error for a missing or non-directory
		// component of path's parent, or nil.
		resolve := func(path string) error {
			for i, end := 0, 1; end < len(path); end++ {
				if path[end] != '/' {
					continue
				}
				if e := model[path[:end]]; e == nil {
					return fmt.Errorf("%w: %q (component %d)", ErrNotExist, path, i)
				} else if !e.dir {
					return fmt.Errorf("%w: %q (component %d)", ErrNotDir, path, i)
				}
				i++
			}
			return nil
		}
		link := func(path, parent, name string, dir bool) *nsEntry {
			lastIno++
			e := &nsEntry{ino: lastIno, dir: dir}
			if dir {
				e.kids = map[string]bool{}
			}
			model[path] = e
			model[parent].kids[name] = true
			return e
		}
		// same checks an error's text and, for a failure, its kind.
		same := func(call string, got, want error) {
			t.Helper()
			if fmt.Sprint(got) != fmt.Sprint(want) || want != nil && !errors.Is(got, errors.Unwrap(want)) {
				t.Fatalf("%s = %v, want %v", call, got, want)
			}
		}
		for i := 0; i+1 < len(x); i += 2 {
			kind, path, parent, name, size := nsOp(x[i], x[i+1])
			e := model[path]
			want := resolve(path)
			switch kind {
			case 0, 6: // mkdir
				if want == nil && e != nil {
					want = fmt.Errorf("%w: %q", ErrExist, path)
				}
				err := b.Mkdir(path)
				same("mkdir "+path, err, want)
				if want == nil {
					link(path, parent, name, true)
				}
			case 1, 7: // create, write size bytes, close
				if want == nil && e != nil && e.dir {
					want = fmt.Errorf("%w: %q", ErrIsDir, path)
				}
				fd, ino, err := b.Create(path, nil)
				same("create "+path, err, want)
				if want != nil {
					break
				}
				if e == nil {
					e = link(path, parent, name, false)
				}
				if ino != e.ino {
					t.Fatalf("create %s = inode %d, want %d", path, ino, e.ino)
				}
				if _, _, _, _, err := b.Advance(fd, size, true, nil); err != nil {
					t.Fatal(err)
				}
				if err := b.Close(fd, nil); err != nil {
					t.Fatal(err)
				}
				total += size - e.size
				e.size = size
			case 2, 3: // unlink
				if want == nil && e == nil {
					want = fmt.Errorf("%w: %q", ErrNotExist, path)
				} else if want == nil && e.dir {
					want = fmt.Errorf("%w: %q", ErrIsDir, path)
				}
				same("unlink "+path, b.Unlink(path), want)
				if want == nil {
					total -= e.size
					delete(model, path)
					delete(model[parent].kids, name)
				}
			case 4: // readdir
				if want == nil && e == nil {
					want = fmt.Errorf("%w: %q", ErrNotExist, path)
				} else if want == nil && !e.dir {
					want = fmt.Errorf("%w: %q", ErrNotDir, path)
				}
				names, err := b.ReadDir(path)
				same("readdir "+path, err, want)
				if want == nil && !slices.Equal(names, slices.Sorted(maps.Keys(e.kids))) {
					t.Fatalf("readdir %s = %v, want %v", path, names, slices.Sorted(maps.Keys(e.kids)))
				}
			case 5: // open, read to the end, close
				if want == nil && e == nil {
					want = fmt.Errorf("%w: %q", ErrNotExist, path)
				} else if want == nil && e.dir {
					want = fmt.Errorf("%w: %q", ErrIsDir, path)
				}
				fd, err := b.Open(path, ReadOnly, nil)
				same("open "+path, err, want)
				if want != nil {
					break
				}
				if ino, _, _, n, err := b.Advance(fd, 1<<10, false, nil); err != nil || ino != e.ino || n != e.size {
					t.Fatalf("read %s = inode %d, %d bytes, %v; want inode %d, %d bytes", path, ino, n, err, e.ino, e.size)
				}
				if err := b.Close(fd, nil); err != nil {
					t.Fatal(err)
				}
			}
			checkStat(t, b, model, path, resolve(path))
			if p := model[parent]; p != nil && p.dir {
				if names, err := b.ReadDir(parent); err != nil || !slices.Equal(names, slices.Sorted(maps.Keys(p.kids))) {
					t.Fatalf("readdir %s = %v, %v; want %v", parent, names, err, slices.Sorted(maps.Keys(p.kids)))
				}
			}
			if got := m.TotalBytes(); got != total {
				t.Fatalf("after %s: TotalBytes = %d, want %d", path, got, total)
			}
		}
		for path := range model {
			checkStat(t, b, model, path, nil)
		}
		if m.linked != len(model)-1 || len(m.index) < 2*m.linked || len(m.index)&(len(m.index)-1) != 0 {
			t.Fatalf("index of %d buckets holds %d names, model %d", len(m.index), m.linked, len(model)-1)
		}
	})
}

// checkStat checks Stat of path against the model, where want is the
// model's error for path's parent.
func checkStat(t *testing.T, b Bare, model map[string]*nsEntry, path string, want error) {
	t.Helper()
	e := model[path]
	if want == nil && e == nil {
		want = fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	info, err := b.Stat(path)
	if fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("stat %s = %v, want %v", path, err, want)
	}
	if want == nil && info != (FileInfo{Path: path, Ino: e.ino, Size: e.size, IsDir: e.dir}) {
		t.Fatalf("stat %s = %+v, want inode %d, size %d, dir %v", path, info, e.ino, e.size, e.dir)
	}
}
