// Package cache implements the LRU block cache used by the simulated NFS
// server (and optionally by local file systems). Cache behaviour is the main
// source of the large response-time standard deviations the thesis reports
// in Table 5.3: hits cost a memory copy, misses cost a disk access three
// orders of magnitude slower. It sits in the pipeline's DES stage, between
// the simulated server and the disk model it shields.
package cache

// BlockID identifies one cached block: a file identity plus a block index.
type BlockID struct {
	File  uint64
	Block int64
}

// nilIdx terminates the slot links.
const nilIdx = -1

// slot is one cached block, linked by slot index rather than pointer into
// two lists at once: the LRU list (prev/next) and its file's chain
// (fprev/fnext), which holds every cached block of the same file. The slot
// array grows as the cache fills and is recycled through the free list, so
// steady-state misses allocate nothing.
type slot struct {
	id           BlockID
	prev, next   int32
	fprev, fnext int32
}

// LRU is a fixed-capacity least-recently-used block cache. It is not safe
// for concurrent use; in the DES only one process runs at a time, which is
// the synchronization the simulated server relies on.
//
// Blocks are indexed per file: the file index maps a file to the head of
// its chain, and a lookup walks that chain. A file holds a handful of
// blocks, so the walk is short, and dropping a whole file (InvalidateFile,
// on every truncate and unlink) costs its own blocks rather than a scan of
// the cache.
//
// The file index is an open-addressing table of chain heads, sized by the
// capacity rather than by the file-identity space: a power of two at least
// twice the capacity, so it is never more than half full (each cached file
// holds at least one block). A file's home bucket is its Fibonacci hash,
// collisions probe linearly, and a bucket's key is read from its head
// slot's id, so the table holds only slot indexes. A deletion shifts the
// later entries of its probe run back, leaving no tombstones.
type LRU struct {
	capacity   int
	slots      []slot
	free       []int32
	head, tail int32
	index      []int32 // chain head per bucket, nilIdx when empty
	shift      uint    // 64 - log2(len(index)): a hash's top bits pick the bucket

	hits   int64
	misses int64
}

// NewLRU returns a cache holding up to capacity blocks. A capacity of zero
// or less disables caching (every access misses).
func NewLRU(capacity int) *LRU {
	c := &LRU{capacity: capacity, head: nilIdx, tail: nilIdx, shift: 64}
	n := 1
	for n < 2*capacity {
		n *= 2
		c.shift--
	}
	c.index = make([]int32, n)
	c.clearIndex()
	return c
}

func (c *LRU) clearIndex() {
	for b := range c.index {
		c.index[b] = nilIdx
	}
}

// home returns the bucket a file's probe run starts at (Knuth's
// multiplicative hash by 2^64/φ).
func (c *LRU) home(file uint64) int {
	return int((file * 0x9e3779b97f4a7c15) >> c.shift)
}

// bucket returns the bucket holding file's chain head and that head, or the
// empty bucket where its probe run ends and nilIdx.
func (c *LRU) bucket(file uint64) (int, int32) {
	mask := len(c.index) - 1
	for b := c.home(file); ; b = (b + 1) & mask {
		if h := c.index[b]; h == nilIdx || c.slots[h].id.File == file {
			return b, h
		}
	}
}

// deleteBucket empties bucket b, moving each later entry of its probe run
// back into the hole when the hole lies between the entry's home and its
// bucket (cyclically), so every entry stays reachable from its home.
func (c *LRU) deleteBucket(b int) {
	mask := len(c.index) - 1
	for j := (b + 1) & mask; c.index[j] != nilIdx; j = (j + 1) & mask {
		h := c.index[j]
		if (j-c.home(c.slots[h].id.File))&mask >= (j-b)&mask {
			c.index[b] = h
			b = j
		}
	}
	c.index[b] = nilIdx
}

// Len returns the number of blocks currently cached: every slot not on the
// free list holds one.
func (c *LRU) Len() int { return len(c.slots) - len(c.free) }

// Access touches a block, returning true on a hit. On a miss the block is
// inserted (evicting the least recently used block if full).
func (c *LRU) Access(id BlockID) bool {
	if c.capacity <= 0 {
		c.misses++
		return false
	}
	if i := c.find(id); i != nilIdx {
		c.moveToFront(i)
		c.hits++
		return true
	}
	c.misses++
	c.insert(id)
	return false
}

// Contains reports whether a block is cached without touching LRU order or
// statistics.
func (c *LRU) Contains(id BlockID) bool {
	return c.find(id) != nilIdx
}

// Invalidate removes a block if present (e.g., after a file is truncated).
func (c *LRU) Invalidate(id BlockID) {
	if i := c.find(id); i != nilIdx {
		c.remove(i)
	}
}

// InvalidateFile removes every cached block of the given file.
func (c *LRU) InvalidateFile(file uint64) {
	b, h := c.bucket(file)
	if h == nilIdx {
		return
	}
	for i := h; i != nilIdx; i = c.slots[i].fnext {
		c.unlink(i)
		c.free = append(c.free, i)
	}
	c.deleteBucket(b)
}

// find returns the slot caching id, or nilIdx.
func (c *LRU) find(id BlockID) int32 {
	_, i := c.bucket(id.File)
	for ; i != nilIdx; i = c.slots[i].fnext {
		if c.slots[i].id.Block == id.Block {
			return i
		}
	}
	return nilIdx
}

// remove drops slot i from both lists and recycles it.
func (c *LRU) remove(i int32) {
	c.unlink(i)
	s := &c.slots[i]
	if s.fprev != nilIdx {
		c.slots[s.fprev].fnext = s.fnext
	} else {
		// i heads its file's chain: the next block takes its bucket, or
		// the file leaves the index.
		b, _ := c.bucket(s.id.File)
		if s.fnext != nilIdx {
			c.index[b] = s.fnext
		} else {
			c.deleteBucket(b)
		}
	}
	if s.fnext != nilIdx {
		c.slots[s.fnext].fprev = s.fprev
	}
	c.free = append(c.free, i)
}

// unlink removes slot i from the LRU list without recycling it.
func (c *LRU) unlink(i int32) {
	s := &c.slots[i]
	if s.prev != nilIdx {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != nilIdx {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront links slot i at the most-recently-used end.
func (c *LRU) pushFront(i int32) {
	s := &c.slots[i]
	s.prev = nilIdx
	s.next = c.head
	if c.head != nilIdx {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail == nilIdx {
		c.tail = i
	}
}

func (c *LRU) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *LRU) insert(id BlockID) {
	if c.Len() >= c.capacity {
		c.remove(c.tail)
	}
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slots = append(c.slots, slot{})
		i = int32(len(c.slots) - 1)
	}
	s := &c.slots[i]
	s.id = id
	c.pushFront(i)
	b, h := c.bucket(id.File)
	s.fprev, s.fnext = nilIdx, h
	if h != nilIdx {
		c.slots[h].fprev = i
	}
	c.index[b] = i
}

// Reset empties the cache: every cached block is discarded and all slots
// return to the free list, as if the owning machine had just rebooted.
// Hit/miss statistics are preserved — a crash does not erase what the run
// has measured, only what the machine had warmed.
func (c *LRU) Reset() {
	for i := c.head; i != nilIdx; i = c.slots[i].next {
		c.free = append(c.free, i)
	}
	c.clearIndex()
	c.head, c.tail = nilIdx, nilIdx
}

// Hits returns the number of cache hits recorded.
func (c *LRU) Hits() int64 { return c.hits }

// Misses returns the number of cache misses recorded.
func (c *LRU) Misses() int64 { return c.misses }

// HitRate returns hits / (hits + misses), or 0 with no accesses.
func (c *LRU) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
