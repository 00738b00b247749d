package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickLRUNeverExceedsCapacity drives random access/invalidate streams
// and checks the structural invariants: Len <= capacity, hits+misses equals
// accesses, and an immediately re-accessed block always hits.
func TestQuickLRUNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, capRaw, opsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + int(capRaw%32)
		ops := 1 + int(opsRaw)
		c := NewLRU(capacity)
		var accesses int64
		for i := 0; i < ops; i++ {
			id := BlockID{File: uint64(r.Intn(4)), Block: int64(r.Intn(64))}
			switch r.Intn(4) {
			case 0, 1:
				c.Access(id)
				accesses++
			case 2:
				c.Access(id)
				accesses++
				if !c.Access(id) { // immediate re-access must hit
					return false
				}
				accesses++
			case 3:
				c.InvalidateFile(id.File)
				if c.Contains(id) {
					return false
				}
			}
			if c.Len() > capacity {
				return false
			}
		}
		return c.Hits()+c.Misses() == accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickLRUEvictsLeastRecent fills the cache beyond capacity and checks
// that the most recently touched blocks survive.
func TestQuickLRUEvictsLeastRecent(t *testing.T) {
	f := func(capRaw uint8) bool {
		capacity := 2 + int(capRaw%30)
		c := NewLRU(capacity)
		total := capacity * 3
		for b := 0; b < total; b++ {
			c.Access(BlockID{File: 1, Block: int64(b)})
		}
		// The last `capacity` blocks must still be resident.
		for b := total - capacity; b < total; b++ {
			if !c.Contains(BlockID{File: 1, Block: int64(b)}) {
				return false
			}
		}
		// And the first block must be gone.
		return !c.Contains(BlockID{File: 1, Block: 0})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// lruModel is the reference the per-file index is checked against: a plain
// recency list, most recent first, searched linearly.
type lruModel struct {
	capacity int
	order    []BlockID
}

func (m *lruModel) index(id BlockID) int {
	for i, b := range m.order {
		if b == id {
			return i
		}
	}
	return -1
}

// access returns the hit flag and, on a miss that evicts, the victim.
func (m *lruModel) access(id BlockID) (hit bool, victim BlockID, evicted bool) {
	if m.capacity <= 0 {
		return false, BlockID{}, false
	}
	if i := m.index(id); i >= 0 {
		copy(m.order[1:i+1], m.order[:i])
		m.order[0] = id
		return true, BlockID{}, false
	}
	if len(m.order) >= m.capacity {
		victim, evicted = m.order[len(m.order)-1], true
		m.order = m.order[:len(m.order)-1]
	}
	m.order = append([]BlockID{id}, m.order...)
	return false, victim, evicted
}

func (m *lruModel) invalidate(keep func(BlockID) bool) {
	out := m.order[:0]
	for _, b := range m.order {
		if keep(b) {
			out = append(out, b)
		}
	}
	m.order = out
}

// TestQuickLRUMatchesModel drives random Access/Invalidate/InvalidateFile/
// Reset streams over several files through the cache and the reference
// model side by side. After every step the hit/miss result, Len, Contains
// for every key and the eviction victim must agree. A third of the cases
// give one file most of the traffic and a block range near the capacity,
// so its chain holds most of the cache. Another third run a capacity-4
// cache, whose file index has 8 buckets, over 64 files of up to 2 blocks:
// nearly every insert collides, probe runs wrap past the table's end, and
// evictions and invalidations delete files from the middle of runs, after
// which every cached file must still be found.
func TestQuickLRUMatchesModel(t *testing.T) {
	f := func(seed int64, capRaw, opsRaw, shape uint8) bool {
		r := rand.New(rand.NewSource(seed))
		big, many := shape%3 == 1, shape%3 == 2
		capacity := int(capRaw % 33)
		files, perFile := 4, 8
		if many {
			capacity, files, perFile = 4, 64, 2
		}
		blocks := perFile
		if big {
			blocks = capacity + 4
		}
		c := NewLRU(capacity)
		m := &lruModel{capacity: capacity}
		key := func() BlockID {
			if big && r.Intn(5) != 0 {
				return BlockID{File: 0, Block: int64(r.Intn(blocks))}
			}
			return BlockID{File: uint64(r.Intn(files)), Block: int64(r.Intn(perFile))}
		}
		for step := 0; step < 4*int(opsRaw)+1; step++ {
			switch k := r.Intn(20); {
			case k < 14:
				id := key()
				hit, victim, evicted := m.access(id)
				if c.Access(id) != hit {
					t.Logf("step %d: Access(%v) disagrees with the model (hit %v)", step, id, hit)
					return false
				}
				if evicted && c.Contains(victim) {
					t.Logf("step %d: %v should have been evicted", step, victim)
					return false
				}
			case k < 17:
				id := key()
				c.Invalidate(id)
				m.invalidate(func(b BlockID) bool { return b != id })
			case k < 19:
				file := uint64(r.Intn(files))
				c.InvalidateFile(file)
				m.invalidate(func(b BlockID) bool { return b.File != file })
			default:
				c.Reset()
				m.order = m.order[:0]
			}
			if c.Len() != len(m.order) {
				t.Logf("step %d: Len %d, model %d", step, c.Len(), len(m.order))
				return false
			}
			for file := uint64(0); file < uint64(files); file++ {
				for b := 0; b < max(blocks, perFile); b++ {
					id := BlockID{File: file, Block: int64(b)}
					if c.Contains(id) != (m.index(id) >= 0) {
						t.Logf("step %d: Contains(%v) = %v, model disagrees", step, id, c.Contains(id))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
