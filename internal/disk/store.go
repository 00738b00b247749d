package disk

import (
	"fmt"

	"uswg/internal/cache"
	"uswg/internal/sim"
)

// Store is one storage stage: a block cache in front of one disk arm, the
// arm's resource and a write policy. The NFS server and the local file
// system each own one, and it holds the storage rules they share: which
// block goes to disk (Touch), and what a disk pass costs (Service). What
// differs between them stays with each caller. The server charges its
// per-block CPU up front and touches a chunk's blocks without holding; the
// local file system holds a memory copy for each block that stays in the
// cache. Each makes its disk pass on its own call state: it takes the arm
// (Disk) through the vfs grant, holds for Service, and releases it. The
// stage binds no continuation and runs no step.
type Store struct {
	cache        *cache.LRU
	arm          Arm
	disk         *sim.Resource
	writeThrough bool
}

// NewStore returns a stage over the drive m whose cache holds cacheBlocks
// blocks (0 disables it) and whose arm is a resource of env. Under
// writeThrough every written block goes to disk; otherwise the cache
// absorbs writes.
func NewStore(env *sim.Env, m Model, cacheBlocks int, writeThrough bool) *Store {
	return &Store{
		cache:        cache.NewLRU(cacheBlocks),
		arm:          Arm{model: m},
		disk:         sim.NewResource(env, 1),
		writeThrough: writeThrough,
	}
}

// Cache exposes the block cache.
func (s *Store) Cache() *cache.LRU { return s.cache }

// Disk returns the arm's resource, which a disk pass holds for its Service
// time.
func (s *Store) Disk() *sim.Resource { return s.disk }

// Touch passes block of inode ino through the cache and reports whether it
// goes to disk. A read hit stays in the cache and a read miss goes to disk.
// A write installs the block, and goes to disk only under write-through.
func (s *Store) Touch(ino uint64, block int64, write bool) (toDisk bool) {
	hit := s.cache.Access(cache.BlockID{File: ino, Block: block})
	if write {
		return s.writeThrough
	}
	return !hit
}

// Service moves the arm over blocks blocks of inode ino from block first,
// and returns the pass's service time. Files lie 2^20 blocks apart on the
// arm, so while files stay under 2^20 blocks a pass on another inode is
// never sequential with the last one.
func (s *Store) Service(ino uint64, first, blocks int64) float64 {
	bs := s.arm.model.BlockSize
	return s.arm.Access(int64(ino)<<20, first*bs, blocks*bs)
}

// Idle returns an error, which its owner prefixes with its own name, while
// the arm is held or has callers queued.
func (s *Store) Idle() error {
	if d := s.disk; d.InUse() > 0 || d.QueueLen() > 0 {
		return fmt.Errorf("disk arm has %d held and %d queued", d.InUse(), d.QueueLen())
	}
	return nil
}
