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
// Blocks are indexed per file: files maps a file to the head of its chain,
// and a lookup walks that chain. A file holds a handful of blocks, so the
// walk is short, and dropping a whole file (InvalidateFile, on every
// truncate and unlink) costs its own blocks rather than a scan of the cache.
type LRU struct {
	capacity   int
	slots      []slot
	free       []int32
	head, tail int32
	files      map[uint64]int32

	hits   int64
	misses int64
}

// NewLRU returns a cache holding up to capacity blocks. A capacity of zero
// or less disables caching (every access misses).
func NewLRU(capacity int) *LRU {
	return &LRU{
		capacity: capacity,
		head:     nilIdx,
		tail:     nilIdx,
		files:    make(map[uint64]int32),
	}
}

// Capacity returns the configured capacity in blocks.
func (c *LRU) Capacity() int { return c.capacity }

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
	h, ok := c.files[file]
	if !ok {
		return
	}
	for i := h; i != nilIdx; i = c.slots[i].fnext {
		c.unlink(i)
		c.free = append(c.free, i)
	}
	delete(c.files, file)
}

// find returns the slot caching id, or nilIdx.
func (c *LRU) find(id BlockID) int32 {
	i, ok := c.files[id.File]
	if !ok {
		return nilIdx
	}
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
	} else if s.fnext != nilIdx {
		c.files[s.id.File] = s.fnext
	} else {
		delete(c.files, s.id.File)
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
	s.fprev, s.fnext = nilIdx, nilIdx
	if h, ok := c.files[id.File]; ok {
		s.fnext = h
		c.slots[h].fprev = i
	}
	c.files[id.File] = i
}

// Reset empties the cache: every cached block is discarded and all slots
// return to the free list, as if the owning machine had just rebooted.
// Hit/miss statistics are preserved — a crash does not erase what the run
// has measured, only what the machine had warmed.
func (c *LRU) Reset() {
	for i := c.head; i != nilIdx; i = c.slots[i].next {
		c.free = append(c.free, i)
	}
	clear(c.files)
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
