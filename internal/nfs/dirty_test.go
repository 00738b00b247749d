package nfs

import (
	"math/rand"
	"testing"

	"uswg/internal/vfs"
)

// recountDirty is the reference for the client's incremental dirtyBlocks:
// the block count of every dirty span, summed from scratch.
func recountDirty(c *Client) int64 {
	var total int64
	for _, s := range c.dirty {
		total += s.blocks(c.cfg.WireBlock)
	}
	return total
}

// TestDirtyBlocksMatchesRecount runs a random write-behind workload over a
// few files — writes at random offsets (widening spans both ways), reads,
// truncating creates, unlinks, closes that flush, writes that cross the
// dirty threshold, and crashes — and checks after every operation that
// the incrementally kept dirtyBlocks equals a recount over c.dirty.
func TestDirtyBlocksMatchesRecount(t *testing.T) {
	c := newCachedClient(t) // MaxDirtyBlocks = 8
	bs := c.cfg.WireBlock
	ctx := &vfs.ManualClock{}
	r := rand.New(rand.NewSource(1991))
	paths := []string{"/a", "/b", "/c", "/d"}
	type open struct {
		path string
		fd   vfs.FD
	}
	var fds []open
	var crashes, discards, overflows int
	check := func(step int, what string) {
		t.Helper()
		if got, want := c.dirtyBlocks, recountDirty(c); got != want {
			t.Fatalf("step %d (%s): dirtyBlocks = %d, recount = %d", step, what, got, want)
		}
	}
	for step := 0; step < 3000; step++ {
		switch k := r.Intn(100); {
		case k < 12 || len(fds) == 0:
			p := paths[r.Intn(len(paths))]
			if fd, err := cs(c).Create(ctx, p); err == nil {
				fds = append(fds, open{p, fd})
			}
			check(step, "create")
		case k < 50:
			o := fds[r.Intn(len(fds))]
			flushes := c.Flushes()
			if _, err := cs(c).Seek(ctx, o.fd, r.Int63n(12*bs), vfs.SeekStart); err == nil {
				cs(c).Write(ctx, o.fd, 1+r.Int63n(3*bs)) //nolint:errcheck // the fd may be stale after an unlink
			}
			if c.Flushes() > flushes {
				overflows++ // the write crossed the dirty threshold
			}
			check(step, "write")
		case k < 60:
			o := fds[r.Intn(len(fds))]
			cs(c).Read(ctx, o.fd, 1+r.Int63n(2*bs)) //nolint:errcheck // reads only touch the page cache
			check(step, "read")
		case k < 80:
			i := r.Intn(len(fds))
			cs(c).Close(ctx, fds[i].fd) //nolint:errcheck // closing flushes the file's span
			fds = append(fds[:i], fds[i+1:]...)
			check(step, "close")
		case k < 97:
			p := paths[r.Intn(len(paths))]
			if ino, err := c.inoOf(p); err == nil {
				if _, ok := c.dirty[ino]; ok {
					discards++
				}
			}
			cs(c).Unlink(ctx, p) //nolint:errcheck // the file may already be gone
			check(step, "unlink")
		default:
			c.Crash()
			fds = fds[:0]
			crashes++
			check(step, "crash")
		}
	}
	if overflows == 0 || crashes == 0 || discards == 0 || c.Flushes() == int64(overflows) {
		t.Fatalf("workload too tame: %d threshold flushes, %d flushes in all, %d crashes, %d discards",
			overflows, c.Flushes(), crashes, discards)
	}
}
